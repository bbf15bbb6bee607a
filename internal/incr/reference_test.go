package incr

import (
	"encoding/binary"
	"fmt"
	"sort"

	"onepass/internal/kv"
)

// refState is the former State, kept verbatim as the oracle for the frame
// implementation: preserved partials in nested Go maps, finals in a map,
// and a MergeInput that rebuilds a key → holding-blocks map and sorts it on
// every call. The merge input is the published state file — its bytes set
// StateBytes and every charged byte of the merge job — so State.MergeInput
// must reproduce refState.MergeInput's output exactly (merge_test.go).
type refState struct {
	blocks map[int]map[string][]byte // block → key → partial aggregate
	finals map[string][]byte         // key → final value of the last merge
}

func newRefState() *refState {
	return &refState{
		blocks: make(map[int]map[string][]byte),
		finals: make(map[string][]byte),
	}
}

// ReplaceBlock is the former State.ReplaceBlock.
func (s *refState) ReplaceBlock(b int, partials map[string][]byte, affected map[string]bool) {
	for k := range s.blocks[b] {
		if affected != nil {
			affected[k] = true
		}
	}
	for k := range partials {
		if affected != nil {
			affected[k] = true
		}
	}
	if len(partials) == 0 {
		delete(s.blocks, b)
		return
	}
	s.blocks[b] = partials
}

// SetFinals is the former State.SetFinals.
func (s *refState) SetFinals(out map[string]string) {
	s.finals = make(map[string][]byte, len(out))
	for k, v := range out {
		s.finals[k] = []byte(v)
	}
}

// Keys is the former State.Keys.
func (s *refState) Keys() int {
	seen := make(map[string]bool)
	for _, partials := range s.blocks {
		for k := range partials {
			seen[k] = true
		}
	}
	return len(seen)
}

// MergeInput is the former State.MergeInput.
func (s *refState) MergeInput(affected map[string]bool) ([]byte, error) {
	keys := make(map[string][]int) // key → holding blocks
	for b, partials := range s.blocks {
		for k := range partials {
			keys[k] = append(keys[k], b)
		}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	var out, val []byte
	for _, k := range sorted {
		if affected != nil && !affected[k] {
			final, ok := s.finals[k]
			if !ok {
				return nil, fmt.Errorf("incr: key %q unaffected but has no cached final", k)
			}
			val = append(val[:0], MarkFinal)
			val = append(val, final...)
			out = kv.AppendPair(out, []byte(k), val)
			continue
		}
		blocks := keys[k]
		sort.Ints(blocks)
		for _, b := range blocks {
			val = append(val[:0], MarkPartial)
			val = binary.AppendUvarint(val, uint64(b))
			val = append(val, s.blocks[b][k]...)
			out = kv.AppendPair(out, []byte(k), val)
		}
	}
	return out, nil
}
