// Package sketch implements the SpaceSaving frequent-items algorithm
// (Metwally, Agrawal, El Abbadi 2005) — the "existing online frequent
// algorithm" the paper's hash engine borrows (§V) to identify hot keys whose
// reduce states deserve memory when the full key set does not fit. With k
// counters over a stream of N items, every key whose true frequency exceeds
// N/k is guaranteed to be tracked, and each estimate overshoots the true
// count by at most the recorded error bound.
package sketch

import (
	"container/heap"
	"sort"
)

// Entry is one tracked key with its estimated count and maximum
// overestimation error.
type Entry struct {
	Key   string
	Count uint64
	Err   uint64
}

type item struct {
	key   string
	count uint64
	err   uint64
	idx   int // heap index
}

type itemHeap []*item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].key < h[j].key // deterministic eviction order
}
func (h itemHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *itemHeap) Push(x interface{}) {
	it := x.(*item)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *itemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// SpaceSaving tracks the (approximately) k most frequent keys of a stream.
type SpaceSaving struct {
	k     int
	items map[string]*item
	heap  itemHeap
	// slots is the unused tail of the newest block of counters. Blocks
	// double up to k in total, so a sketch costs what the keys it has seen
	// need, not what k allows; once k keys are tracked the footprint is fixed
	// and no item structs are ever allocated — evictions recycle the minimum
	// counter in place.
	slots []item
	block int // size of the newest block
	// intern caches owned strings for keys that have been tracked, so a key
	// that churns in and out of the counter set (the moderately hot tail)
	// does not reallocate its string on every re-entry. Bounded: cleared
	// when it outgrows a small multiple of k.
	intern map[string]string
	n      uint64
}

// minBlock is the first block of counters a sketch allocates.
const minBlock = 64

// NewSpaceSaving returns a sketch with k counters. The frequency guarantee
// threshold is N/k where N is the stream length so far.
func NewSpaceSaving(k int) *SpaceSaving {
	if k <= 0 {
		panic("sketch: k must be positive")
	}
	return &SpaceSaving{
		k:      k,
		items:  make(map[string]*item),
		intern: make(map[string]string),
	}
}

// internKey returns an owned string for key, reusing a prior allocation when
// the key has been tracked before.
func (s *SpaceSaving) internKey(key []byte) string {
	if v, ok := s.intern[string(key)]; ok {
		return v
	}
	if len(s.intern) >= 4*s.k {
		clear(s.intern)
	}
	v := string(key)
	s.intern[v] = v
	return v
}

// K returns the number of counters.
func (s *SpaceSaving) K() int { return s.k }

// N returns the total weight offered so far.
func (s *SpaceSaving) N() uint64 { return s.n }

// Tracked returns the number of keys currently monitored.
func (s *SpaceSaving) Tracked() int { return len(s.items) }

// Offer feeds one occurrence of key with the given weight (use 1 for plain
// counting).
func (s *SpaceSaving) Offer(key []byte, weight uint64) {
	if weight == 0 {
		return
	}
	s.n += weight
	if it, ok := s.items[string(key)]; ok {
		it.count += weight
		heap.Fix(&s.heap, it.idx)
		return
	}
	if len(s.items) < s.k {
		if len(s.slots) == 0 {
			s.block = min(max(2*s.block, minBlock), s.k-len(s.items))
			s.slots = make([]item, s.block)
		}
		it := &s.slots[0]
		s.slots = s.slots[1:]
		*it = item{key: s.internKey(key), count: weight}
		s.items[it.key] = it
		heap.Push(&s.heap, it)
		return
	}
	// Replace the current minimum in place: the newcomer inherits its count
	// as the error bound, the classic SpaceSaving step.
	min := s.heap[0]
	delete(s.items, min.key)
	min.err = min.count
	min.count += weight
	min.key = s.internKey(key)
	s.items[min.key] = min
	heap.Fix(&s.heap, 0)
}

// Estimate returns the estimated count and error bound for key, and whether
// the key is currently tracked. For a tracked key the true count lies in
// [Count-Err, Count].
func (s *SpaceSaving) Estimate(key []byte) (count, errBound uint64, tracked bool) {
	it, ok := s.items[string(key)]
	if !ok {
		return 0, 0, false
	}
	return it.count, it.err, true
}

// GuaranteedCount returns the provable lower bound on key's true count
// (Count-Err), or 0 if untracked.
func (s *SpaceSaving) GuaranteedCount(key []byte) uint64 {
	it, ok := s.items[string(key)]
	if !ok {
		return 0
	}
	return it.count - it.err
}

// Top returns up to n tracked entries ordered by descending estimated count
// (ties broken by key for determinism).
func (s *SpaceSaving) Top(n int) []Entry {
	out := make([]Entry, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, Entry{Key: it.key, Count: it.count, Err: it.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// MinCount returns the smallest tracked count (the eviction threshold), or
// 0 when fewer than k keys are tracked.
func (s *SpaceSaving) MinCount() uint64 {
	if len(s.items) < s.k || len(s.heap) == 0 {
		return 0
	}
	return s.heap[0].count
}

// IsHot reports whether key is tracked with a guaranteed count strictly
// above the current eviction threshold — a conservative "definitely
// frequent" test the hot-key engine uses for pinning decisions.
func (s *SpaceSaving) IsHot(key []byte) bool {
	it, ok := s.items[string(key)]
	if !ok {
		return false
	}
	return it.count-it.err > 0 && (len(s.items) < s.k || it.count > s.heap[0].count)
}
