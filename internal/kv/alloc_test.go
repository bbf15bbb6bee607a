package kv

import (
	"fmt"
	"testing"
)

// Allocation budgets: these hot paths run once per record in every engine,
// so a single stray allocation multiplies into millions per run. The
// budgets are exact and measured at steady state, so `go test` fails on one.

func TestAllocBudgetAppendDecodePair(t *testing.T) {
	key := []byte("user-0012345")
	val := []byte("8,1754390400")
	buf := make([]byte, 0, 256)
	avg := testing.AllocsPerRun(1000, func() {
		buf = buf[:0]
		buf = AppendPair(buf, key, val)
		k, v, n := DecodePair(buf)
		if n == 0 || len(k) != len(key) || len(v) != len(val) {
			t.Fatal("round-trip failed")
		}
	})
	if avg != 0 {
		t.Fatalf("encode+decode allocates %.1f/op, budget 0", avg)
	}
}

func TestAllocBudgetBufferAdd(t *testing.T) {
	b := NewBuffer(1 << 20)
	key := []byte("user-0012345")
	val := []byte("1")
	avg := testing.AllocsPerRun(1000, func() {
		b.Reset()
		for i := 0; i < 16; i++ {
			b.Add(i%4, key, val)
		}
	})
	// Steady-state adds reuse the buffer's data and ref slices entirely.
	if avg != 0 {
		t.Fatalf("Buffer.Add allocates %.1f/op, budget 0", avg)
	}
}

// A recycled buffer's scratch recycles with it: once a buffer has been
// filled, sorted, index-listed and combined into, the same work on the same
// volume after Reset allocates nothing, and the combine buffer comes back
// empty.
func TestAllocBudgetBufferScratch(t *testing.T) {
	b := NewBuffer(1 << 20)
	key := []byte("user-0012345")
	val := []byte("1")
	var cmps int64
	cycle := func() {
		b.Reset()
		for i := 0; i < 64; i++ {
			b.Add(i%4, key, val)
		}
		idxs := b.Indices(b.Len())
		for i := range idxs {
			idxs[i] = i
		}
		b.SortIndices(idxs, &cmps)
		b.SortByPartitionKey(&cmps)
		c := b.Combined()
		if c.Len() != 0 {
			t.Fatalf("combine buffer came back holding %d pairs", c.Len())
		}
		for i := 0; i < b.Len(); i++ {
			c.Add(b.Partition(i), b.Key(i), b.Val(i))
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("a recycled buffer's scratch allocates %.1f/op, budget 0", avg)
	}
}

func TestAllocBudgetGrouper(t *testing.T) {
	keys := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}
	val := []byte("1")
	var g Grouper
	sink := func(key []byte, vals [][]byte) {}
	// Warm up so the grouper's staging buffers reach steady-state size.
	for _, k := range keys {
		g.Add(k, val, nil, sink)
	}
	g.Flush(sink)
	avg := testing.AllocsPerRun(1000, func() {
		for _, k := range keys {
			g.Add(k, val, nil, sink)
			g.Add(k, val, nil, sink)
		}
		g.Flush(sink)
	})
	if avg != 0 {
		t.Fatalf("Grouper allocates %.1f/op, budget 0", avg)
	}
}

// A recycled buffer (Reset after a first sort of at least this size) keeps
// its sort scratch, so steady-state map tasks sort without allocating.
func TestAllocBudgetSortRecycledBuffer(t *testing.T) {
	keys := make([][]byte, 512)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("u%07d", (i*7919)%4096))
	}
	val := []byte("869769600 /en/page/123")
	b := NewBuffer(1 << 16)
	fill := func() {
		b.Reset()
		for i, k := range keys {
			b.Add(i&3, k, val)
		}
	}
	var cmps int64
	fill()
	b.SortByPartitionKey(&cmps)
	idxs := make([]int, 128)
	avg := testing.AllocsPerRun(100, func() {
		fill()
		b.SortByPartitionKey(&cmps)
		for i := range idxs {
			idxs[i] = len(idxs) - 1 - i
		}
		b.SortIndices(idxs, &cmps)
	})
	if avg != 0 {
		t.Fatalf("sorting a recycled buffer allocates %.1f/op, budget 0", avg)
	}
}

// A merge on a kept scratch allocates nothing: the heap, heads and group
// value list are the scratch's from the first merge on, and a stream holds
// its decoder by value.
func TestAllocBudgetMergeGroups(t *testing.T) {
	var runs [4][]byte
	for r := range runs {
		for k := 0; k < 9; k++ {
			key := []byte(fmt.Sprintf("u%d", k))
			runs[r] = AppendPair(AppendPair(runs[r], key, []byte("1")), key, []byte("2"))
		}
	}
	var streams [4]SliceStream
	var ifaces [4]PairStream
	var s MergeScratch
	merge := func() {
		for i := range runs {
			streams[i] = SliceStream{dec: Decoder{buf: runs[i]}}
			ifaces[i] = &streams[i]
		}
		MergeGroups(ifaces[:], nil, &s, func(key []byte, vals [][]byte) {})
	}
	merge()
	if avg := testing.AllocsPerRun(100, merge); avg != 0 {
		t.Fatalf("MergeGroups on a kept scratch allocates %.1f/op, budget 0", avg)
	}
}
