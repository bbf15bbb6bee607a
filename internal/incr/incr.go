// Package incr holds the preserved reduce-side state of the incremental
// re-run path (i2MapReduce-style): per-(block, key) partial aggregates
// captured from a tagged run, plus the per-key finals of the last merge.
// Both live the way the paper keeps per-key state (§IV) and MRBG-Store
// keeps preserved state: as key-sorted runs of encoded pairs in flat byte
// slabs — one frame per origin block, one for the finals — that are
// merge-joined, never looked up. The structures are pure data — the root
// package's delta runner decides how they are produced (a capture job),
// persisted (a spill-backed DFS write for the disk engines, a
// memory-resident block for the resident engine), and consumed (a merge job
// whose input this package encodes).
package incr

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"onepass/internal/kv"
)

// Merge-input value markers: the first byte of every value in the encoded
// merge input says whether the rest is a cached final ('F', the key was
// untouched by the delta) or one block's partial aggregate ('P', followed
// by uvarint(block) then the partial payload).
const (
	MarkFinal   = 'F'
	MarkPartial = 'P'
)

// BlockFrame is one origin block's preserved partials: a run of encoded
// pairs (key, 'P' uvarint(Block) payload) under strictly ascending keys.
// The values already carry the merge-input marking, so an affected key's
// partials go into the merge input as they stand.
type BlockFrame struct {
	Block int
	Data  []byte
}

// State is one job's preserved aggregation state between runs. It only
// composes under the aggregation law it was built with, so it is keyed by
// a monoid identity string: replaying it under a different monoid (or a
// different holistic reducer) is a checked error, not silent corruption.
type State struct {
	monoidKey string
	blocks    []BlockFrame // live frames, blocks ascending
	finals    []byte       // key-sorted (key, final) run of the last merge
}

// New returns empty state bound to an aggregation law's identity string.
func New(monoidKey string) *State { return &State{monoidKey: monoidKey} }

// MonoidKey returns the aggregation-law identity this state composes under.
func (s *State) MonoidKey() string { return s.monoidKey }

// CheckKey rejects partials produced under a different aggregation law.
func (s *State) CheckKey(monoidKey string) error {
	if monoidKey != s.monoidKey {
		return fmt.Errorf("incr: state preserved under %q cannot absorb partials from %q",
			s.monoidKey, monoidKey)
	}
	return nil
}

// CaptureFrames decodes a capture job's part files — pairs keyed
// uvarint(origin block) ++ key, valued by that block's partial for the key —
// into one frame per origin block below nBlocks, blocks ascending: every
// pair goes once into a kv.Buffer partitioned by origin block, the
// normalized-key sort orders it by (block, key), and one packing pass lays
// each block's run out in a single slab. The frames own their bytes; parts
// is only read.
func CaptureFrames(parts [][]byte, nBlocks int) ([]BlockFrame, error) {
	buf := kv.NewBuffer(totalLen(parts))
	var val []byte
	err := eachPair(parts, func(k, v []byte) error {
		b, n := binary.Uvarint(k)
		if n <= 0 {
			return fmt.Errorf("key %q has no uvarint(block) prefix", k)
		}
		if b >= uint64(nBlocks) {
			return fmt.Errorf("key %q names block %d of %d", k[n:], b, nBlocks)
		}
		val = appendPartial(val[:0], b, v)
		buf.Add(int(b), k[n:], val)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("incr: capture output: %w", err)
	}
	runs := sortedRuns(buf, nBlocks)
	frames := make([]BlockFrame, len(runs))
	for i, r := range runs {
		frames[i] = BlockFrame{Block: r.Part, Data: r.Data}
	}
	return frames, nil
}

// sortedRuns sorts buf by (partition, key) and returns each non-empty
// partition's encoded run, partitions ascending, all in one slab.
func sortedRuns(buf *kv.Buffer, parts int) []kv.Chunk {
	buf.SortByPartitionKey(nil)
	return kv.PackPartitions(buf, parts, math.MaxInt64).Chunks
}

func totalLen(parts [][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// eachPair decodes every pair of every part file, attributing a truncated
// pair or an error from fn to its part and byte offset.
func eachPair(parts [][]byte, fn func(k, v []byte) error) error {
	for i, part := range parts {
		for off := 0; off < len(part); {
			k, v, n := kv.DecodePair(part[off:])
			if n == 0 {
				return fmt.Errorf("part %d: truncated pair at byte %d", i, off)
			}
			if err := fn(k, v); err != nil {
				return fmt.Errorf("part %d, byte %d: %w", i, off, err)
			}
			off += n
		}
	}
	return nil
}

// checkRun verifies that run holds whole pairs under strictly ascending
// keys and, for a block frame (block >= 0), that every value is a partial
// of that block.
func checkRun(run []byte, block int) error {
	var prev []byte
	for off := 0; off < len(run); {
		k, v, n := kv.DecodePair(run[off:])
		if n == 0 {
			return fmt.Errorf("truncated pair at byte %d", off)
		}
		if off > 0 {
			switch c := bytes.Compare(prev, k); {
			case c == 0:
				return fmt.Errorf("duplicate key %q", k)
			case c > 0:
				return fmt.Errorf("key %q after %q: not sorted", k, prev)
			}
		}
		if block >= 0 {
			if b, _, err := DecodePartial(v); err != nil {
				return fmt.Errorf("key %q: %w", k, err)
			} else if b != block {
				return fmt.Errorf("key %q holds a partial of block %d", k, b)
			}
		}
		prev = k
		off += n
	}
	return nil
}

// Affected is the key set a delta touched: the keys of every frame a
// ReplaceFrame removed or installed since it was created — exactly the keys
// whose groups must be re-folded. The zero value is empty; a nil *Affected
// passed to Merge means every key.
type Affected struct {
	runs   [][]byte // key-sorted runs whose keys are affected
	keys   [][]byte // their union, ascending, duplicate-free, aliasing runs
	merged int      // how many of runs keys covers
}

func (a *Affected) add(run []byte) {
	if len(run) > 0 {
		a.runs = append(a.runs, run)
	}
}

// Keys returns the affected keys in ascending order, each once: a k-way
// merge of the recorded runs. The keys alias the frames they came from.
func (a *Affected) Keys() [][]byte {
	if a.merged != len(a.runs) {
		a.keys = a.keys[:0]
		mergeRuns(a.runs, func(k, _ []byte, first bool) {
			if first {
				a.keys = append(a.keys, k)
			}
		})
		a.merged = len(a.runs)
	}
	return a.keys
}

// Len returns the number of affected keys — including keys the delta
// removed from every block.
func (a *Affected) Len() int { return len(a.Keys()) }

// mergeRuns streams the pairs of key-sorted runs in key order — kv's k-way
// merge, so pairs under one key come in run order — flagging the first pair
// of each key.
func mergeRuns(runs [][]byte, fn func(key, val []byte, first bool)) {
	streams := make([]kv.PairStream, len(runs))
	for i, r := range runs {
		streams[i] = kv.NewSliceStream(r)
	}
	var prev []byte
	started := false
	kv.MergeStreams(streams, nil, func(k, v []byte) {
		first := !started || !bytes.Equal(prev, k)
		started, prev = true, k
		fn(k, v, first)
	})
}

// ReplaceFrame installs frame as block b's preserved partials, replacing
// whatever the block held before (an empty frame removes the block — every
// record deleted). Keys present before or after are recorded in affected
// (when non-nil). The frame is checked on the way in — whole pairs,
// strictly ascending keys, every value a partial of block b — and is
// aliased, not copied: the caller must not modify it afterwards.
func (s *State) ReplaceFrame(b int, frame []byte, affected *Affected) error {
	if b < 0 {
		return fmt.Errorf("incr: negative block %d", b)
	}
	if err := checkRun(frame, b); err != nil {
		return fmt.Errorf("incr: block %d frame: %w", b, err)
	}
	i, found := slices.BinarySearchFunc(s.blocks, b, func(f BlockFrame, b int) int {
		return cmp.Compare(f.Block, b)
	})
	if affected != nil {
		if found {
			affected.add(s.blocks[i].Data)
		}
		affected.add(frame)
	}
	switch {
	case len(frame) > 0 && found:
		s.blocks[i].Data = frame
	case len(frame) > 0:
		s.blocks = slices.Insert(s.blocks, i, BlockFrame{Block: b, Data: frame})
	case found:
		s.blocks = slices.Delete(s.blocks, i, i+1)
	}
	return nil
}

// ReplaceBlock is ReplaceFrame for partials held in a map: it encodes them
// as block b's frame first. Kept for callers that build state by hand (the
// benchmark's probes, tests); the delta runner installs the frames
// CaptureFrames decodes.
func (s *State) ReplaceBlock(b int, partials map[string][]byte, affected *Affected) {
	keys := make([]string, 0, len(partials))
	for k := range partials {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var frame, val []byte
	for _, k := range keys {
		val = appendPartial(val[:0], uint64(b), partials[k])
		frame = kv.AppendPair(frame, []byte(k), val)
	}
	if err := s.ReplaceFrame(b, frame, affected); err != nil {
		// The frame was built sorted, duplicate-free and marked for b above.
		panic(err)
	}
}

// SetFinals replaces the cached finals wholesale with the part files of a
// merge run — called after a merge so unaffected keys can be served from
// cache on the next delta. The pairs are sorted into one key-ordered run
// the way CaptureFrames builds a block's; a key with two finals is an
// error.
func (s *State) SetFinals(parts [][]byte) error {
	buf := kv.NewBuffer(totalLen(parts))
	err := eachPair(parts, func(k, v []byte) error {
		buf.Add(0, k, v)
		return nil
	})
	if err != nil {
		return fmt.Errorf("incr: merge output: %w", err)
	}
	var finals []byte
	if runs := sortedRuns(buf, 1); len(runs) > 0 {
		finals = runs[0].Data
	}
	if err := checkRun(finals, -1); err != nil {
		return fmt.Errorf("incr: merge output: %w", err)
	}
	s.finals = finals
	return nil
}

// Blocks returns the number of blocks with live partials.
func (s *State) Blocks() int { return len(s.blocks) }

// Keys returns the number of distinct keys with live partials. Merge
// reports the same count for free; this is a merge pass of its own.
func (s *State) Keys() int {
	n := 0
	s.eachLive(func(_, _ []byte, first bool) {
		if first {
			n++
		}
	})
	return n
}

// eachLive streams every live partial in (key, block) order: the frames are
// held in block order, so the merge's run-order tie-break is "blocks
// ascending".
func (s *State) eachLive(fn func(key, val []byte, first bool)) {
	runs := make([][]byte, len(s.blocks))
	for i, f := range s.blocks {
		runs[i] = f.Data
	}
	mergeRuns(runs, fn)
}

// MergeInput is Merge without the key count.
func (s *State) MergeInput(affected *Affected) ([]byte, error) {
	input, _, err := s.Merge(affected)
	return input, err
}

// Merge encodes the merge job's input: one kv pair per (key, source), keys
// ascending, and returns it with the number of distinct live keys. An
// affected key contributes its partials — one 'P' value per holding block,
// blocks ascending. An unaffected key contributes its single cached 'F'
// final. affected == nil means every key is affected (the priming run,
// before any final exists).
//
// It is one pass of a three-way merge-join, all inputs key-ordered: the
// k-way merge of the block frames, the affected-key list, and the finals
// run. The latter two only ever move forward.
func (s *State) Merge(affected *Affected) (input []byte, keys int, err error) {
	all := affected == nil
	var aff [][]byte
	size := len(s.finals) + len(s.finals)/8
	if all {
		// Every frame byte goes into the input exactly once.
		size = 0
		for _, f := range s.blocks {
			size += len(f.Data)
		}
	} else {
		aff = affected.Keys()
	}
	input = make([]byte, 0, size)
	finals := kv.NewDecoder(s.finals)
	fk, fv, fok := finals.Next()
	refold := all // whether the current key is affected
	s.eachLive(func(k, v []byte, first bool) {
		if err != nil {
			return
		}
		if first {
			keys++
		}
		if first && !all {
			for len(aff) > 0 && bytes.Compare(aff[0], k) < 0 {
				aff = aff[1:]
			}
			refold = len(aff) > 0 && bytes.Equal(aff[0], k)
			if !refold {
				for fok && bytes.Compare(fk, k) < 0 {
					fk, fv, fok = finals.Next()
				}
				if !fok || !bytes.Equal(fk, k) {
					err = fmt.Errorf("incr: key %q unaffected but has no cached final", k)
					return
				}
				input = kv.AppendTaggedPair(input, k, MarkFinal, fv)
			}
		}
		if refold {
			input = kv.AppendPair(input, k, v)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return input, keys, nil
}

// appendPartial appends block's 'P'-marked merge value for payload to dst.
func appendPartial(dst []byte, block uint64, payload []byte) []byte {
	dst = append(dst, MarkPartial)
	dst = binary.AppendUvarint(dst, block)
	return append(dst, payload...)
}

// DecodePartial splits a 'P'-marked merge value into its block index and
// partial payload.
func DecodePartial(val []byte) (block int, payload []byte, err error) {
	if len(val) == 0 || val[0] != MarkPartial {
		return 0, nil, fmt.Errorf("incr: not a partial value (marker %q)", val[:min(1, len(val))])
	}
	b, n := binary.Uvarint(val[1:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("incr: truncated partial block index")
	}
	return int(b), val[1+n:], nil
}
