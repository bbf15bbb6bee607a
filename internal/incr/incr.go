// Package incr holds the preserved reduce-side state of the incremental
// re-run path (i2MapReduce-style): per-(block, key) partial aggregates
// captured from a tagged run, plus the per-key finals of the last merge.
// Both live the way the paper keeps per-key state (§IV) and MRBG-Store
// keeps preserved state: in the order the merge reads them, partitioned by
// the merge's reduce task. Every live partial sits in one run of encoded
// pairs ordered by (partition, key, block), already in the merge input's
// encoding, and the finals are one (partition, key)-sorted run beside it, so
// each merge partition's input is one contiguous slice of a run. A capture
// costs one sort of its own pairs; installing it and every merge are linear
// merge-joins over those runs, partition by partition, never lookups. The
// structures are pure data — the root package's delta runner decides how
// they are produced (a capture job), persisted (a spill-backed DFS write for
// the disk engines, a memory-resident block for the resident engine), and
// consumed (a merge job whose input this package encodes).
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

// State is one job's preserved aggregation state between runs. It only
// composes under the aggregation law it was built with, so it is keyed by
// a monoid identity string: replaying it under a different monoid (or a
// different holistic reducer) is a checked error, not silent corruption.
//
// Runs are never written once built: an install builds a new live run, and
// the old one stays valid for whatever still aliases it (an every-key merge
// input that was published).
type State struct {
	monoidKey string
	// partition maps a key to its merge partition; nil when there is one.
	partition func(key []byte) int
	live      []byte // every live partial, (key, 'P' uvarint(block) payload), (partition, key, block) ascending
	liveEnds  []int  // liveEnds[r] is where partition r's run ends in live
	keys      int    // distinct keys in live
	finals    []byte // (partition, key)-sorted (key, final) run of the last merge
	finalEnds []int  // finalEnds[r] is where partition r's run ends in finals
	// one holds both ends lists of a one-partition state, as
	// memtable.Table holds its first segments.
	one [2]int
}

// New returns empty state bound to an aggregation law's identity string,
// with every key in one merge partition.
func New(monoidKey string) *State { return NewPartitioned(monoidKey, 1, nil) }

// NewPartitioned returns empty state whose runs are laid out by merge
// partition: partition maps a key to one of n partitions, as the merge job's
// partitioner does, so Merge can hand each reduce task its own input. With
// n < 2 (or a nil partition) every key is in partition 0.
func NewPartitioned(monoidKey string, n int, partition func(key []byte) int) *State {
	s := &State{monoidKey: monoidKey, partition: partition}
	if n < 2 || partition == nil {
		s.partition, s.liveEnds, s.finalEnds = nil, s.one[:1:1], s.one[1:2:2]
	} else {
		ends := make([]int, 2*n)
		s.liveEnds, s.finalEnds = ends[:n:n], ends[n:]
	}
	return s
}

// partitions returns the number of merge partitions the runs are laid out by.
func (s *State) partitions() int { return len(s.liveEnds) }

// span returns where segment r of a partition-major list with the given
// segment ends lies: [lo, hi).
func span(ends []int, r int) (lo, hi int) {
	if r > 0 {
		lo = ends[r-1]
	}
	return lo, ends[r]
}

// CheckKey rejects partials produced under a different aggregation law.
func (s *State) CheckKey(monoidKey string) error {
	if monoidKey != s.monoidKey {
		return fmt.Errorf("incr: state preserved under %q cannot absorb partials from %q",
			s.monoidKey, monoidKey)
	}
	return nil
}

// sortedPairs is the pairs of a set of part files in (partition, key,
// block) order, located in the part files rather than copied out of them.
type sortedPairs struct {
	parts [][]byte
	pairs []pair  // in part-file order
	order []entry // (partition, key, block) ascending; pairs equal on all three are adjacent
	ends  []int   // ends[r] is where partition r's entries end in order
	one   [1]int  // ends of a one-partition sort
}

// pair locates one part-file pair: its key is parts[part][off:off+klen]
// and its payload the vlen bytes right behind the key. Offsets and counts
// are 32-bit, as in kv.Buffer's pair references.
type pair struct{ part, off, klen, vlen uint32 }

// entry is the 16-byte sort element of one pair: its key's normalized
// prefix, its origin block (0 for a final) and its index among the pairs.
// (prefix, block) decides every comparison except between two keys that
// run past seven bytes and agree on the first seven.
type entry struct {
	prefix uint64
	block  uint32
	idx    uint32
}

func (s *sortedPairs) key(e entry) []byte {
	p := s.pairs[e.idx]
	return s.parts[p.part][p.off : p.off+p.klen]
}

func (s *sortedPairs) payload(e entry) []byte {
	p := s.pairs[e.idx]
	return s.parts[p.part][p.off+p.klen : p.off+p.klen+p.vlen]
}

func totalLen(parts [][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// keyPrefix is k's normalized key, built as kv's map-side sort builds it:
// the first seven bytes big-endian and zero-padded, above a low byte holding
// min(len(k), 8). Unequal prefixes order exactly as the keys do; equal
// prefixes with a low byte below 8 are equal keys.
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)&^0xff | 8
	}
	p := uint64(len(k))
	for i, c := range k {
		p |= uint64(c) << (56 - 8*uint(i))
	}
	return p
}

// sortParts decodes every pair of every part file and sorts them by
// (partition, key, block): one counting pass places each pair in its
// partition's segment, then each segment is sorted on its own. fn names each
// pair's block and how many leading key bytes are not part of its key; a
// truncated pair or an error from fn is attributed to its part and byte
// offset.
func (s *State) sortParts(parts [][]byte, fn func(k, v []byte) (strip int, block uint32, err error)) (*sortedPairs, error) {
	count := 0
	for _, part := range parts {
		count += kv.CountPairs(part)
	}
	n := s.partitions()
	sp := &sortedPairs{parts: parts, pairs: make([]pair, 0, count), order: make([]entry, 0, count)}
	sp.ends = sp.one[:]
	var of []uint32 // each pair's partition, when there is more than one
	if n > 1 {
		sp.ends = make([]int, n)
		of = make([]uint32, 0, count)
	}
	for i, part := range parts {
		for off := 0; off < len(part); {
			k, v, m := kv.DecodePair(part[off:])
			if m == 0 {
				return nil, fmt.Errorf("part %d: truncated pair at byte %d", i, off)
			}
			strip, block, err := fn(k, v)
			if err != nil {
				return nil, fmt.Errorf("part %d, byte %d: %w", i, off, err)
			}
			key := k[strip:]
			if of != nil {
				r := s.partition(key)
				of = append(of, uint32(r))
				sp.ends[r]++
			}
			sp.order = append(sp.order, entry{prefix: keyPrefix(key), block: block, idx: uint32(len(sp.pairs))})
			sp.pairs = append(sp.pairs, pair{
				part: uint32(i), off: uint32(off + m - len(v) - len(key)),
				klen: uint32(len(key)), vlen: uint32(len(v)),
			})
			off += m
		}
	}
	if of == nil {
		sp.ends[0] = len(sp.order)
	} else {
		// The counts become each segment's start, and each start its end as
		// the segment fills: a stable placement in part-file order.
		start := 0
		for r, c := range sp.ends {
			sp.ends[r], start = start, start+c
		}
		placed := make([]entry, len(sp.order))
		for _, e := range sp.order {
			r := of[e.idx]
			placed[sp.ends[r]] = e
			sp.ends[r]++
		}
		sp.order = placed
	}
	for r := range sp.ends {
		lo, hi := span(sp.ends, r)
		slices.SortFunc(sp.order[lo:hi], func(x, y entry) int {
			if x.prefix != y.prefix { // most comparisons, decided without a call
				return cmp.Compare(x.prefix, y.prefix)
			}
			return sp.compare(x, y)
		})
	}
	return sp, nil
}

// compare orders two entries by (key, block), reading the keys only when
// the prefixes cannot decide.
func (s *sortedPairs) compare(x, y entry) int {
	if x.prefix != y.prefix {
		return cmp.Compare(x.prefix, y.prefix)
	}
	if x.prefix&0xff == 8 {
		if c := bytes.Compare(s.key(x), s.key(y)); c != 0 {
			return c
		}
	}
	return cmp.Compare(x.block, y.block)
}

// duplicate returns the first entry equal on (key, block) to the one
// before it, if any. Equal keys share a partition, so they are adjacent.
func (s *sortedPairs) duplicate() (entry, bool) {
	for i := 1; i < len(s.order); i++ {
		if s.compare(s.order[i-1], s.order[i]) == 0 {
			return s.order[i], true
		}
	}
	return entry{}, false
}

// Capture installs a capture job's part files — pairs keyed uvarint(origin
// block) ++ key, valued by that block's partial for the key — as the
// preserved partials of blocks, the blocks of the job's tagged input,
// numbered below nBlocks. Every one of them is replaced: a block the run
// emitted nothing for has lost every record and is removed. Keys that lost
// or gained a partial are added to affected (when non-nil).
//
// The pairs are sorted once by (key, block) straight out of the part files,
// and one merge-join pass over the live run drops the blocks' old partials
// and lays the new ones in. Damage — a pair without a block prefix, a block
// outside the input, two partials for one (block, key) — is an error that
// leaves the state and affected untouched. parts is only read: the new run
// owns its bytes.
func (s *State) Capture(parts [][]byte, blocks []int, nBlocks int, affected *Affected) error {
	if nBlocks > math.MaxUint32 {
		return fmt.Errorf("incr: %d blocks is more than a block index holds", nBlocks)
	}
	in := make([]bool, max(nBlocks, 0))
	for _, b := range blocks {
		if b < 0 {
			return fmt.Errorf("incr: negative block %d", b)
		}
		if b >= nBlocks {
			return fmt.Errorf("incr: input block %d of %d", b, nBlocks)
		}
		in[b] = true
	}
	sp, err := s.sortParts(parts, func(k, v []byte) (int, uint32, error) {
		b, n := binary.Uvarint(k)
		switch {
		case n <= 0:
			return 0, 0, fmt.Errorf("key %q has no uvarint(block) prefix", k)
		case b >= uint64(nBlocks):
			return 0, 0, fmt.Errorf("key %q names block %d of %d", k[n:], b, nBlocks)
		case !in[b]:
			return 0, 0, fmt.Errorf("key %q names block %d, which is not in the capture's input", k[n:], b)
		}
		return n, uint32(b), nil
	})
	if err != nil {
		return fmt.Errorf("incr: capture output: %w", err)
	}
	if e, dup := sp.duplicate(); dup {
		return fmt.Errorf("incr: capture output: block %d: duplicate key %q", e.block, sp.key(e))
	}
	s.install(sp, in, affected)
	return nil
}

// install is Capture's merge-join: one pass over the live run with the new
// pairs slotted in, both (partition, key, block) ascending, partition by
// partition. A live partial of a block marked in replaced is dropped and
// every other pair is kept in order.
func (s *State) install(sp *sortedPairs, replaced []bool, affected *Affected) {
	// A new pair is its part-file pair with the 'P' marker added and the
	// block moved from key to value, which lengthens its two length fields
	// by at most one byte: the run never outgrows this.
	run := make([]byte, 0, len(s.live)+totalLen(sp.parts)+2*len(sp.order))
	var touched [][]byte // this install's affected keys, by partition, ascending
	var touchedEnds []int
	if affected != nil {
		touchedEnds = make([]int, len(s.liveEnds))
	}
	keys := 0
	var last []byte // the key run ends with
	// counted counts the key of the pair run now ends with. Equal keys share
	// a partition, so a key never straddles a partition boundary.
	counted := func(klen, vlen int) []byte {
		k := run[len(run)-vlen-klen : len(run)-vlen]
		if keys == 0 || !bytes.Equal(last, k) {
			keys++
		}
		last = k
		return k
	}
	var order []entry // the current partition's new pairs still to insert
	var head []byte   // the key of order[0]
	var val []byte
	insert := func() {
		e := order[0]
		order = order[1:]
		val = appendPartial(val[:0], e.block, sp.payload(e))
		run = kv.AppendPair(run, head, val)
		k := counted(len(head), len(val))
		if affected != nil {
			touched = appendDistinct(touched, k)
		}
		if len(order) > 0 {
			head = sp.key(order[0])
		}
	}
	// The ends are rewritten in place, each read before it is overwritten.
	lo := 0
	for r, hi := range s.liveEnds {
		old := s.live[lo:hi]
		lo = hi
		olo, ohi := span(sp.ends, r)
		order = sp.order[olo:ohi]
		if len(order) > 0 {
			head = sp.key(order[0])
		}
		for off := 0; off < len(old); {
			k, v, n := kv.DecodePair(old[off:])
			b, _ := binary.Uvarint(v[1:])
			for len(order) > 0 && precedes(head, order[0].block, k, b) {
				insert()
			}
			if b < uint64(len(replaced)) && replaced[b] {
				if affected != nil {
					touched = appendDistinct(touched, k)
				}
			} else {
				run = append(run, old[off:off+n]...)
				counted(len(k), len(v))
			}
			off += n
		}
		for len(order) > 0 {
			insert()
		}
		s.liveEnds[r] = len(run)
		if affected != nil {
			touchedEnds[r] = len(touched)
		}
	}
	s.live, s.keys = run, keys
	if affected != nil {
		affected.add(touched, touchedEnds)
	}
}

// precedes reports whether (kx, bx) orders before (ky, by).
func precedes(kx []byte, bx uint32, ky []byte, by uint64) bool {
	c := bytes.Compare(kx, ky)
	return c < 0 || c == 0 && uint64(bx) < by
}

// appendDistinct appends k to keys unless it is already the last.
func appendDistinct(keys [][]byte, k []byte) [][]byte {
	if len(keys) > 0 && bytes.Equal(keys[len(keys)-1], k) {
		return keys
	}
	return append(keys, k)
}

// ReplaceBlock replaces block b's preserved partials with partials held in
// a map — a one-block Capture of a part file encoding them. Kept for callers
// that build state by hand (the benchmark's probes, tests); the delta runner
// captures part files directly.
func (s *State) ReplaceBlock(b int, partials map[string][]byte, affected *Affected) {
	var part, key []byte
	for k, v := range partials {
		key = append(binary.AppendUvarint(key[:0], uint64(b)), k...)
		part = kv.AppendPair(part, key, v)
	}
	if err := s.Capture([][]byte{part}, []int{b}, b+1, affected); err != nil {
		// The part names only block b, each key once; only b < 0 fails.
		panic(err)
	}
}

// SetFinals replaces the cached finals wholesale with the part files of a
// merge run — called after a merge so unaffected keys can be served from
// cache on the next delta. The pairs are sorted into one (partition,
// key)-ordered run by the same sort Capture uses; a key with two finals is
// an error.
func (s *State) SetFinals(parts [][]byte) error {
	sp, err := s.sortParts(parts, func(k, v []byte) (int, uint32, error) { return 0, 0, nil })
	if err != nil {
		return fmt.Errorf("incr: merge output: %w", err)
	}
	if e, dup := sp.duplicate(); dup {
		return fmt.Errorf("incr: merge output: duplicate key %q", sp.key(e))
	}
	finals := make([]byte, 0, totalLen(parts)) // the same pairs, reordered
	for r := range s.finalEnds {
		lo, hi := span(sp.ends, r)
		for _, e := range sp.order[lo:hi] {
			finals = kv.AppendPair(finals, sp.key(e), sp.payload(e))
		}
		s.finalEnds[r] = len(finals)
	}
	s.finals = finals
	return nil
}

// Keys returns the number of distinct keys with live partials.
func (s *State) Keys() int { return s.keys }

// MergeInput is Merge's partitions as the one run they are slices of,
// without the key count.
func (s *State) MergeInput(affected *Affected) ([]byte, error) {
	input, _, err := s.merge(affected)
	return input, err
}

// Merge encodes the merge job's input, one run per merge partition, and
// returns it with the number of distinct live keys. A partition's run holds
// one kv pair per (key, source) of the keys in that partition, keys
// ascending. An affected key contributes its partials — one 'P' value per
// holding block, blocks ascending. An unaffected key contributes its single
// cached 'F' final. affected == nil means every key is affected (the
// priming run, before any final exists).
//
// The runs are consecutive slices of one slab, capacities clipped. Every
// key affected is the live run as it stands, handed out without a copy: it
// must not be modified. Otherwise each partition's run is one forward pass
// of a three-way merge-join over that partition's key-ordered inputs — its
// live run, its affected keys and its finals.
func (s *State) Merge(affected *Affected) (parts [][]byte, keys int, err error) {
	input, ends, err := s.merge(affected)
	if err != nil {
		return nil, 0, err
	}
	parts = make([][]byte, len(ends))
	for r := range parts {
		lo, hi := span(ends, r)
		parts[r] = input[lo:hi:hi]
	}
	return parts, s.keys, nil
}

// merge builds Merge's slab and the end of each partition's run in it.
func (s *State) merge(affected *Affected) (input []byte, ends []int, err error) {
	if affected == nil {
		return s.live, s.liveEnds, nil
	}
	input = make([]byte, 0, len(s.finals)+len(s.finals)/8)
	ends = make([]int, len(s.liveEnds))
	for r := range ends {
		lo, hi := span(s.liveEnds, r)
		live := s.live[lo:hi]
		aff := affected.partition(r)
		flo, fhi := span(s.finalEnds, r)
		finals := kv.NewDecoder(s.finals[flo:fhi])
		fk, fv, fok := finals.Next()
		var prev []byte
		refold := false // whether the current key is affected
		for off := 0; off < len(live); {
			k, _, n := kv.DecodePair(live[off:])
			if off == 0 || !bytes.Equal(prev, k) {
				prev = k
				for len(aff) > 0 && bytes.Compare(aff[0], k) < 0 {
					aff = aff[1:]
				}
				refold = len(aff) > 0 && bytes.Equal(aff[0], k)
				if !refold {
					for fok && bytes.Compare(fk, k) < 0 {
						fk, fv, fok = finals.Next()
					}
					if !fok || !bytes.Equal(fk, k) {
						return nil, nil, fmt.Errorf("incr: key %q unaffected but has no cached final", k)
					}
					input = kv.AppendTaggedPair(input, k, MarkFinal, fv)
				}
			}
			if refold {
				input = append(input, live[off:off+n]...)
			}
			off += n
		}
		ends[r] = len(input)
	}
	return input, ends, nil
}

// Affected is the key set a delta touched: every key that lost or gained a
// partial in the captures it was passed to — exactly the keys whose groups
// must be re-folded, including keys the delta removed from every block. The
// zero value is empty; a nil *Affected passed to Merge means every key.
type Affected struct {
	keys [][]byte // by merge partition, ascending and duplicate-free within each
	ends []int    // ends[r] is where partition r's keys end; nil: one partition
}

// Len returns the number of affected keys.
func (a *Affected) Len() int { return len(a.keys) }

// partition returns partition r's affected keys.
func (a *Affected) partition(r int) [][]byte {
	if a.ends == nil {
		if r == 0 {
			return a.keys
		}
		return nil
	}
	lo, hi := span(a.ends, r)
	return a.keys[lo:hi]
}

// add unions keys — by partition with the given segment ends, ascending and
// duplicate-free within each — into the set. The keys are copied into one
// slab first: they point into runs, and an Affected must not keep a
// replaced run reachable.
func (a *Affected) add(keys [][]byte, ends []int) {
	n := 0
	for _, k := range keys {
		n += len(k)
	}
	slab := make([]byte, 0, n)
	for i, k := range keys {
		slab = append(slab, k...)
		keys[i] = slab[len(slab)-len(k) : len(slab) : len(slab)]
	}
	if len(a.keys) == 0 {
		a.keys, a.ends = keys, ends
		return
	}
	union := make([][]byte, 0, len(a.keys)+len(keys))
	unionEnds := make([]int, len(ends))
	for r := range ends {
		lo, hi := span(ends, r)
		seg := append(append(union[len(union):], a.partition(r)...), keys[lo:hi]...)
		slices.SortFunc(seg, bytes.Compare)
		union = append(union, slices.CompactFunc(seg, bytes.Equal)...)
		unionEnds[r] = len(union)
	}
	a.keys, a.ends = union, unionEnds
}

// appendPartial appends block's 'P'-marked merge value for payload to dst.
func appendPartial(dst []byte, block uint32, payload []byte) []byte {
	dst = append(dst, MarkPartial)
	dst = binary.AppendUvarint(dst, uint64(block))
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
