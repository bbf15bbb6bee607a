package sketch

import "container/heap"

// refSpaceSaving is the former SpaceSaving, kept verbatim as the oracle for
// the flat layout: a Go map from key strings to heap-allocated items, a
// container/heap over them and an intern table of key strings. The hot-key
// reducer picks its cold-sweep victims through Estimate, so which key a full
// sketch evicts — the minimum under (count, then key bytes) — is part of the
// engines' virtual-time behaviour, and SpaceSaving must reproduce it exactly
// (spacesaving_test.go). The methods the flat sketch dropped (Top, IsHot,
// GuaranteedCount, MinCount, K) are dropped here too.
type refItem struct {
	key   string
	count uint64
	err   uint64
	idx   int // heap index
}

type refItemHeap []*refItem

func (h refItemHeap) Len() int { return len(h) }
func (h refItemHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].key < h[j].key // deterministic eviction order
}
func (h refItemHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refItemHeap) Push(x interface{}) {
	it := x.(*refItem)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *refItemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refSpaceSaving tracks the (approximately) k most frequent keys of a stream.
type refSpaceSaving struct {
	k     int
	items map[string]*refItem
	heap  refItemHeap
	// slots is the unused tail of the newest block of counters. Blocks
	// double up to k in total, so a sketch costs what the keys it has seen
	// need, not what k allows; once k keys are tracked the footprint is fixed
	// and no item structs are ever allocated — evictions recycle the minimum
	// counter in place.
	slots []refItem
	block int // size of the newest block
	// intern caches owned strings for keys that have been tracked, so a key
	// that churns in and out of the counter set (the moderately hot tail)
	// does not reallocate its string on every re-entry. Bounded: cleared
	// when it outgrows a small multiple of k.
	intern map[string]string
	n      uint64
}

// refMinBlock is the first block of counters a sketch allocates.
const refMinBlock = 64

// newRefSpaceSaving returns a sketch with k counters. The frequency guarantee
// threshold is N/k where N is the stream length so far.
func newRefSpaceSaving(k int) *refSpaceSaving {
	if k <= 0 {
		panic("sketch: k must be positive")
	}
	return &refSpaceSaving{
		k:      k,
		items:  make(map[string]*refItem),
		intern: make(map[string]string),
	}
}

// internKey returns an owned string for key, reusing a prior allocation when
// the key has been tracked before.
func (s *refSpaceSaving) internKey(key []byte) string {
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

// N returns the total weight offered so far.
func (s *refSpaceSaving) N() uint64 { return s.n }

// Tracked returns the number of keys currently monitored.
func (s *refSpaceSaving) Tracked() int { return len(s.items) }

// Offer feeds one occurrence of key with the given weight (use 1 for plain
// counting).
func (s *refSpaceSaving) Offer(key []byte, weight uint64) {
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
			s.block = min(max(2*s.block, refMinBlock), s.k-len(s.items))
			s.slots = make([]refItem, s.block)
		}
		it := &s.slots[0]
		s.slots = s.slots[1:]
		*it = refItem{key: s.internKey(key), count: weight}
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
func (s *refSpaceSaving) Estimate(key []byte) (count, errBound uint64, tracked bool) {
	it, ok := s.items[string(key)]
	if !ok {
		return 0, 0, false
	}
	return it.count, it.err, true
}
