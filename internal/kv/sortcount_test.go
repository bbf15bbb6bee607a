package kv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// pinnedSortInputs are the fixed buffers TestSortCountsPinned sorts: the
// click workloads' short user keys ("u" and at most six digits, every
// prefix deciding), eight-byte keys (every prefix tied on the length byte,
// so key bytes break prefix ties), and the adversarial key set.
func pinnedSortInputs() map[string][]testPair {
	rng := rand.New(rand.NewSource(41))
	short := make([]testPair, 1<<16)
	eight := make([]testPair, 1<<16)
	for i := range short {
		short[i] = testPair{rng.Intn(16), fmt.Sprintf("u%d", rng.Intn(1_000_000)), "1"}
		eight[i] = testPair{rng.Intn(16), fmt.Sprintf("u%07d", rng.Intn(1<<20)), "1"}
	}
	adversarial := make([]testPair, 1<<12)
	for i := range adversarial {
		adversarial[i] = testPair{rng.Intn(3), adversarialKeys[rng.Intn(len(adversarialKeys))], "1"}
	}
	return map[string][]testPair{"short-64K": short, "eight-byte-64K": eight, "adversarial-4K": adversarial}
}

// TestSortCountsPinned pins the comparisons SortByPartitionKey and
// SortIndices (over partition 0's pairs) charge on fixed inputs, as
// numbers: the sort algorithm is part of the cost model, so these move only
// when a change means to move every sort count and every makespan after it.
func TestSortCountsPinned(t *testing.T) {
	want := map[string][2]int64{
		"short-64K":      {1107461, 50149},
		"eight-byte-64K": {1101705, 51754},
		"adversarial-4K": {51503, 14680},
	}
	for name, pairs := range pinnedSortInputs() {
		b := fillBuffer(pairs)
		var idxs []int
		for i, p := range pairs {
			if p.part == 0 {
				idxs = append(idxs, i)
			}
		}
		var got [2]int64
		b.SortIndices(idxs, &got[1])
		b.SortByPartitionKey(&got[0])
		if got != want[name] {
			t.Errorf("%s: SortByPartitionKey, SortIndices charged %v comparisons, pinned %v", name, got, want[name])
		}
	}
}

// TestHeapSortFallback drives pdqsort's heapsort fallback, which these
// inputs never reach on their own, through both comparators (short-64K
// takes lessShort, the others lessLong): it must give the total order the
// sort gives.
func TestHeapSortFallback(t *testing.T) {
	for name, pairs := range pinnedSortInputs() {
		b := fillBuffer(pairs)
		es := make([]sortEntry, len(pairs))
		var all uint64
		for i := range es {
			es[i] = b.entry(i)
			all |= es[i].prefix
		}
		want := slices.Clone(es)
		b.sortEntries(want, prefixDecides(all), nil)
		s := entrySorter{b: b}
		if prefixDecides(all) {
			s.pdqsortShort(es, 0, len(es), 0)
		} else {
			s.pdqsortLong(es, 0, len(es), 0)
		}
		if !slices.Equal(es, want) {
			t.Errorf("%s: heapsort order differs from the sort's", name)
		}
	}
}
