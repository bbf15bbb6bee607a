package engine_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/hashlib"
	"onepass/internal/kv"
	"onepass/internal/memtable"
	"onepass/internal/workloads"
)

// stretch is a Combine whose result is longer than len(a)+len(b): it appends
// b twice, so it can outrun whatever capacity its first argument came with.
type stretch struct{}

func (stretch) Combine(a, b []byte) []byte { return append(append(a, b...), b...) }

type foldPair struct{ key, val []byte }

// foldPairs interleaves vals values from val for each of keys keys, so the
// keys' elements grab and release regions in turn.
func foldPairs(keys, vals int, val func() []byte) []foldPair {
	var pairs []foldPair
	for range vals {
		for k := range keys {
			pairs = append(pairs, foldPair{[]byte(fmt.Sprintf("key-%02d", k)), val()})
		}
	}
	return pairs
}

// heapFold is the reference: each key's values folded with Combine into a
// heap slice, in the pairs' order.
func heapFold(m kv.Monoid, pairs []foldPair) map[string][]byte {
	ref := map[string][]byte{}
	for _, p := range pairs {
		if elem, ok := ref[string(p.key)]; ok {
			ref[string(p.key)] = m.Combine(elem, p.val)
		} else {
			ref[string(p.key)] = bytes.Clone(p.val)
		}
	}
	return ref
}

// Into's per-key work allocates nothing once a table and its arena have been
// filled and reset: a declared Combine that outgrows its element's region
// works in the arena's scratch, and SetElem places the result in a region
// from the recycled slabs. The elements are byte for byte a heap fold's,
// within the 4 KB scratch bound and past it, and for a Combine whose result
// is longer than its inputs together.
func TestIntoFoldsInArenaScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	posting := func() []byte { return binary.BigEndian.AppendUint64(nil, uint64(rng.Intn(1<<20))) }
	count := func() []byte { return []byte{byte('1' + rng.Intn(9))} }
	for _, tc := range []struct {
		name      string
		m         kv.Monoid
		pairs     []foldPair
		allocFree bool
	}{
		// 48 keys of 200 postings: elements up to 1,600 bytes in unsorted
		// arrival order, so Combine merges, and regions from 8 to 2 KB.
		{"postings", workloads.PostingsMonoid{}, foldPairs(48, 200, posting), true},
		// Counts of up to five digits: results as long as both inputs
		// together or shorter, in regions of 1 to 8 bytes.
		{"counts", workloads.CountMonoid{}, foldPairs(64, 3000, count), true},
		// 6 keys of 700 postings: 5,600-byte elements, past the bound, so
		// their last growths work in fresh arrays.
		{"postings past the scratch bound", workloads.PostingsMonoid{}, foldPairs(6, 700, posting), false},
		{"results longer than their inputs", stretch{}, foldPairs(8, 9, count), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := (&engine.Job{Monoid: tc.m}).Fold()
			arena := memtable.NewArena(0)
			tb := memtable.NewTable(hashlib.NewFamily(1).New(), arena, 16)
			fill := func() {
				tb.Reset()
				arena.Reset()
				for _, p := range tc.pairs {
					e, inserted := tb.Slot(p.key)
					f.Into(tb, e, inserted, p.val, false)
				}
			}
			fill() // warm-up: slabs, index, entry segments and scratch
			want := heapFold(tc.m, tc.pairs)
			if tb.Len() != len(want) {
				t.Fatalf("table holds %d keys, want %d", tb.Len(), len(want))
			}
			for k, w := range want {
				if got, _ := tb.GetElem([]byte(k)); !bytes.Equal(got, w) {
					t.Fatalf("key %s: element of %d bytes differs from the heap fold's %d", k, len(got), len(w))
				}
			}
			if !tc.allocFree {
				return
			}
			if avg := testing.AllocsPerRun(5, fill); avg != 0 {
				t.Fatalf("folding %d pairs into a reset table allocates %.1f/op, budget 0", len(tc.pairs), avg)
			}
		})
	}
}

// A reduce whose emit suspends with another Finish on the same Fold — the
// hash engines' push and pull paths, RunDelta's merge reducers sharing one
// Fold — gets a value list of its own, and after the first such
// interleaving neither call allocates one.
func TestFinishInterleavedAllocatesNothing(t *testing.T) {
	var f *engine.Fold
	outerState := kv.AppendFramed(kv.AppendFramed(kv.AppendFramed(nil, []byte("a")), []byte("bb")), []byte("c"))
	innerState := kv.AppendFramed(kv.AppendFramed(nil, []byte("x")), []byte("yy"))
	outerKey, innerKey := []byte("outer"), []byte("inner")
	outer, inner := make([]byte, 0, 16), make([]byte, 0, 16)
	nested := false
	f = (&engine.Job{Reduce: func(key []byte, vals [][]byte, emit engine.Emit) {
		emit(key, nil)
		// Reads vals after an emit that may have run another Finish.
		out := &outer
		if string(key) == "inner" {
			out = &inner
		}
		*out = (*out)[:0]
		for _, v := range vals {
			*out = append(append(*out, v...), '+')
		}
	}}).Fold()
	emit := func(key, _ []byte) {
		if string(key) != "outer" || nested {
			return
		}
		nested = true
		if n, err := f.Finish(innerKey, innerState, func(_, _ []byte) {}); err != nil || n != 2 {
			t.Errorf("inner Finish: %d values, %v", n, err)
		}
		nested = false
	}
	finish := func() {
		if n, err := f.Finish(outerKey, outerState, emit); err != nil || n != 3 {
			t.Fatalf("outer Finish: %d values, %v", n, err)
		}
	}
	finish()
	if string(outer) != "a+bb+c+" || string(inner) != "x+yy+" {
		t.Fatalf("reduces saw outer %q, inner %q; want a+bb+c+, x+yy+", outer, inner)
	}
	if avg := testing.AllocsPerRun(100, finish); avg != 0 {
		t.Fatalf("an interleaved pair of Finish calls allocates %.1f/op, budget 0", avg)
	}
}
