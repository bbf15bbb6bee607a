// Package sketch implements the SpaceSaving frequent-items algorithm
// (Metwally, Agrawal, El Abbadi 2005) — the "existing online frequent
// algorithm" the paper's hash engine borrows (§V) to identify hot keys whose
// reduce states deserve memory when the full key set does not fit. With k
// counters over a stream of N items, every key whose true frequency exceeds
// N/k is guaranteed to be tracked, and each estimate overshoots the true
// count by at most the recorded error bound.
package sketch

import (
	"bytes"
	"encoding/binary"
)

// SpaceSaving tracks the (approximately) k most frequent keys of a stream.
//
// It is flat memory, like memtable.Table: counters are dense, pointer-free
// 32-byte records numbered by an int32 id, the min-heap and the probe index
// hold ids, and the key bytes past a counter's 8-byte prefix live in one
// slab. The collector has nothing to follow in a sketch, and nothing is
// allocated per key — only the arrays grow, geometrically, as keys arrive.
//
// The counter a full sketch evicts is the minimum under (count, then key
// bytes). The hot-key reducer picks its cold-sweep victims through
// Estimate, so that order is part of the engines' virtual-time behaviour;
// reference_test.go keeps the map-based sketch it was pinned on.
type SpaceSaving struct {
	k int
	n uint64

	// counters holds what a probe hit and a heap step read, two to a cache
	// line; regions, by the same id, where each key's bytes past its prefix
	// sit in slab.
	counters []counter
	regions  []region
	// heap holds every counter's id, a min-heap under less; counter.pos is
	// each one's place in it.
	heap []int32
	// index is the linear-probing array over the counters: 0 is an empty
	// slot, anything else the low half of the key's hash above the counter's
	// id plus one, so a probe compares hashes without touching a counter.
	// It is kept at most half full and deletes by backward shift, so an
	// evicting sketch leaves no tombstones behind.
	index []uint64
	// slab holds the key suffixes; a newcomer that fits takes over its
	// counter's region. dead counts the bytes no counter owns. Once they
	// reach both the live bytes and the number of counters — so the bytes
	// freed pay for the walk — compact moves the live regions into spare and
	// the two buffers swap.
	slab, spare []byte
	dead        int
}

// counter is one tracked key. prefix is its first 8 bytes, big-endian and
// zero-padded, so a tie on count is almost always settled by one integer
// compare; klen is the whole key's length.
type counter struct {
	prefix uint64
	count  uint64
	klen   uint32
	pos    int32
	err    uint64
}

// region is a counter's share of the slab: kcap bytes at off, the first
// klen-8 of them its key's suffix.
type region struct{ off, kcap uint32 }

const (
	// prefixLen is how many key bytes a counter holds itself.
	prefixLen = 8
	// minCounters is the first capacity of the counter and heap arrays,
	// minIndex the first size of the probe index.
	minCounters = 64
	minIndex    = 16
)

// NewSpaceSaving returns a sketch with k counters. The frequency guarantee
// threshold is N/k where N is the stream length so far. Counters are
// allocated as keys arrive, never k up front.
func NewSpaceSaving(k int) *SpaceSaving {
	if k <= 0 {
		panic("sketch: k must be positive")
	}
	return &SpaceSaving{k: k}
}

// N returns the total weight offered so far.
func (s *SpaceSaving) N() uint64 { return s.n }

// Offer feeds one occurrence of key with the given weight (use 1 for plain
// counting).
func (s *SpaceSaving) Offer(key []byte, weight uint64) {
	if weight == 0 {
		return
	}
	s.n += weight
	prefix := prefixOf(key)
	hash := hashOf(prefix, len(key), tailOf(key))
	if id, found := s.find(hash, prefix, key); found {
		s.counters[id].count += weight
		s.down(int(s.counters[id].pos))
		return
	}
	if len(s.counters) < s.k {
		s.track(hash, prefix, key, weight)
		return
	}
	// Replace the current minimum in place: the newcomer inherits its count
	// as the error bound, the classic SpaceSaving step.
	id := s.heap[0]
	c := &s.counters[id]
	s.unindex(hashOf(c.prefix, int(c.klen), s.suffix(id)), id)
	c.err = c.count
	c.count += weight
	c.prefix = prefix
	s.setKey(id, key)
	s.insert(hash, id)
	s.down(0)
}

// Estimate returns the estimated count and error bound for key, and whether
// the key is currently tracked. For a tracked key the true count lies in
// [Count-Err, Count].
func (s *SpaceSaving) Estimate(key []byte) (count, errBound uint64, tracked bool) {
	prefix := prefixOf(key)
	id, found := s.find(hashOf(prefix, len(key), tailOf(key)), prefix, key)
	if !found {
		return 0, 0, false
	}
	c := &s.counters[id]
	return c.count, c.err, true
}

// prefixOf returns key's first 8 bytes as a big-endian integer, zero-padded.
func prefixOf(key []byte) uint64 {
	if len(key) >= prefixLen {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for i, b := range key {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// tailOf returns key's bytes past its prefix.
func tailOf(key []byte) []byte { return key[min(len(key), prefixLen):] }

// hashOf hashes a key of n bytes from its prefix and its tail, for the probe
// index: the workloads' keys fit in the prefix, so theirs is one finalizer
// over it and the length; a longer key's tail is folded in byte by byte.
// Which function it is affects probe lengths only, never which keys are
// tracked.
func hashOf(prefix uint64, n int, tail []byte) uint32 {
	h := prefix ^ uint64(n)*0x9e3779b97f4a7c15
	for _, b := range tail {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd // MurmurHash3's 64-bit finalizer
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return uint32(h ^ h>>33)
}

// suffix returns counter id's key bytes past its prefix.
func (s *SpaceSaving) suffix(id int32) []byte {
	n := s.counters[id].klen
	if n <= prefixLen {
		return nil
	}
	r := s.regions[id]
	return s.slab[r.off : r.off+n-prefixLen]
}

// less is the eviction order: count, then key bytes. lessHead and sameHead
// compare what the counters hold themselves, so only a tie on the prefix
// pays for a call.
func (s *SpaceSaving) less(a, b int32) bool {
	ca, cb := &s.counters[a], &s.counters[b]
	return lessHead(ca, cb) || sameHead(ca, cb) && s.lessPastPrefix(a, b)
}

func lessHead(a, b *counter) bool {
	return a.count < b.count || a.count == b.count && a.prefix < b.prefix
}

func sameHead(a, b *counter) bool { return a.count == b.count && a.prefix == b.prefix }

// lessPastPrefix orders two keys with the same prefix. They differ past it
// only if both are longer than the prefix; otherwise the shorter one is a
// prefix of the longer (up to zero padding) and sorts first.
func (s *SpaceSaving) lessPastPrefix(a, b int32) bool {
	na, nb := s.counters[a].klen, s.counters[b].klen
	if na > prefixLen && nb > prefixLen {
		return bytes.Compare(s.suffix(a), s.suffix(b)) < 0
	}
	return na < nb
}

// find returns the id of key's counter.
func (s *SpaceSaving) find(hash uint32, prefix uint64, key []byte) (id int32, found bool) {
	if len(s.index) == 0 {
		return 0, false
	}
	mask := uint32(len(s.index) - 1)
	for i := hash & mask; s.index[i] != 0; i = (i + 1) & mask {
		if v := s.index[i]; uint32(v>>32) == hash {
			id := int32(uint32(v) - 1)
			c := &s.counters[id]
			if c.prefix == prefix && int(c.klen) == len(key) &&
				(len(key) <= prefixLen || bytes.Equal(s.suffix(id), key[prefixLen:])) {
				return id, true
			}
		}
	}
	return 0, false
}

// track gives key a new counter with count weight.
func (s *SpaceSaving) track(hash uint32, prefix uint64, key []byte, weight uint64) {
	if len(s.counters) == cap(s.counters) {
		n := min(max(2*cap(s.counters), minCounters), s.k)
		s.counters = append(make([]counter, 0, n), s.counters...)
		s.regions = append(make([]region, 0, n), s.regions...)
		s.heap = append(make([]int32, 0, n), s.heap...)
	}
	if 2*(len(s.counters)+1) > len(s.index) {
		s.growIndex()
	}
	id := int32(len(s.counters))
	s.counters = append(s.counters, counter{prefix: prefix, count: weight, pos: int32(len(s.heap))})
	s.regions = append(s.regions, region{})
	s.setKey(id, key)
	s.insert(hash, id)
	s.heap = append(s.heap, id)
	s.up(len(s.heap) - 1)
}

// setKey makes key counter id's: its suffix goes into the counter's own
// region when it fits, else into a new region at the slab's end, leaving the
// old one dead.
func (s *SpaceSaving) setKey(id int32, key []byte) {
	c, r := &s.counters[id], &s.regions[id]
	c.klen = 0 // the old key, if any, is gone: compact must not copy it
	if tail := tailOf(key); len(tail) > int(r.kcap) {
		s.dead += int(r.kcap)
		r.kcap = 0
		if s.dead >= len(s.counters) && 2*s.dead >= len(s.slab) {
			s.compact()
		}
		*r = region{uint32(len(s.slab)), uint32(len(tail))}
		s.slab = append(s.slab, tail...)
	} else {
		copy(s.slab[r.off:], tail)
	}
	c.klen = uint32(len(key))
}

// compact copies every counter's live suffix into spare, densely and in
// counter order, and swaps the two slabs. A region outlived by a shorter
// key shrinks to it; one whose counter holds a key no longer than the
// prefix is dropped.
func (s *SpaceSaving) compact() {
	out := s.spare[:0]
	for id := range s.counters {
		tail := s.suffix(int32(id))
		s.regions[id] = region{uint32(len(out)), uint32(len(tail))}
		out = append(out, tail...)
	}
	s.slab, s.spare = out, s.slab[:0]
	s.dead = 0
}

// insert puts id, whose key is known to be absent, into the index.
func (s *SpaceSaving) insert(hash uint32, id int32) {
	mask := uint32(len(s.index) - 1)
	i := hash & mask
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = uint64(hash)<<32 | uint64(id+1)
}

// unindex removes id, whose key hashes to hash, from the index and shifts the
// rest of its probe run back over the hole, so every key stays reachable
// from its home slot with no tombstone left behind.
func (s *SpaceSaving) unindex(hash uint32, id int32) {
	mask := uint32(len(s.index) - 1)
	i := hash & mask
	for uint32(s.index[i]) != uint32(id+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// The key at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if home := uint32(s.index[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}

// growIndex doubles the index and re-inserts every slot's hash and id.
func (s *SpaceSaving) growIndex() {
	old := s.index
	s.index = make([]uint64, max(2*len(old), minIndex))
	for _, v := range old {
		if v != 0 {
			s.insert(uint32(v>>32), int32(uint32(v)-1))
		}
	}
}

// up and down restore the heap after the counter at heap position i moved
// toward the root (it is new) or away from it (its count grew).
func (s *SpaceSaving) up(i int) {
	id := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(id, s.heap[p]) {
			break
		}
		s.place(i, s.heap[p])
		i = p
	}
	s.place(i, id)
}

// down spells less out, since it runs at every Offer: the compiler does not
// inline a function that makes a call, and a sift compares twice a level.
func (s *SpaceSaving) down(i int) {
	heap, counters := s.heap, s.counters
	id := heap[i]
	c := &counters[id]
	for {
		j := 2*i + 1
		if j >= len(heap) {
			break
		}
		child := &counters[heap[j]]
		if r := j + 1; r < len(heap) {
			if right := &counters[heap[r]]; lessHead(right, child) || sameHead(right, child) && s.lessPastPrefix(heap[r], heap[j]) {
				j, child = r, right
			}
		}
		if lessHead(c, child) || sameHead(c, child) && s.lessPastPrefix(id, heap[j]) {
			break
		}
		s.place(i, heap[j])
		i = j
	}
	s.place(i, id)
}

// place puts counter id at heap position i.
func (s *SpaceSaving) place(i int, id int32) {
	s.heap[i] = id
	s.counters[id].pos = int32(i)
}
