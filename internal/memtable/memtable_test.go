package memtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"onepass/internal/hashlib"
)

func newTable(cap int) *Table {
	return NewTable(hashlib.NewFamily(1).New(), NewArena(0), cap)
}

// put and get reach a key's value through the calls the engines make: Slot
// and SetVal to write it, the probe to find it.
func put(tb *Table, key []byte, val uint64) {
	e, _ := tb.Slot(key)
	tb.SetVal(e, val)
}

func get(tb *Table, key []byte) (uint64, bool) {
	e, found := tb.find(key)
	if !found {
		return 0, false
	}
	return tb.at(e).val, true
}

// slotKeys returns tb's live keys in slot order.
func slotKeys(tb *Table) (keys []string) {
	tb.Elems(func(k, _ []byte) bool { keys = append(keys, string(k)); return true })
	return keys
}

// alloc returns n bytes of arena memory.
func alloc(a *Arena, n int) []byte {
	_, b := a.grab(n)
	return b
}

// footprint is the capacity of the slabs a holds since its last Reset.
func footprint(a *Arena) (n int) {
	for _, s := range a.slabs {
		n += len(s)
	}
	return n
}

// records reads list id back in append order.
func records(s *ListStore, id ListID) (out [][]byte) {
	for ci := s.lists[id].head; ci >= 0; ci = s.chunks[ci].next {
		c := &s.chunks[ci]
		for off := 0; off < c.used; {
			l, n := binary.Uvarint(c.buf[off:c.used])
			off += n
			out = append(out, c.buf[off:off+int(l)])
			off += int(l)
		}
	}
	return out
}

func TestArenaAllocAndCopy(t *testing.T) {
	a := NewArena(128)
	b1 := alloc(a, 10)
	if len(b1) != 10 {
		t.Fatalf("len = %d", len(b1))
	}
	src := []byte("hello")
	_, c := a.copyRef(src)
	src[0] = 'X'
	if string(c) != "hello" {
		t.Fatalf("copy aliased source: %q", c)
	}
	if _, b := a.copyRef(nil); b != nil || alloc(a, 0) != nil {
		t.Fatal("empty alloc should be nil")
	}
}

func TestArenaOversizedAllocation(t *testing.T) {
	a := NewArena(64)
	big := alloc(a, 1000)
	if len(big) != 1000 {
		t.Fatalf("len = %d", len(big))
	}
	if footprint(a) < 1000 {
		t.Fatalf("footprint = %d", footprint(a))
	}
}

func TestArenaAllocationsDoNotOverlap(t *testing.T) {
	a := NewArena(64)
	x := alloc(a, 10)
	y := alloc(a, 10)
	for i := range x {
		x[i] = 1
	}
	for i := range y {
		y[i] = 2
	}
	for i := range x {
		if x[i] != 1 {
			t.Fatal("allocations overlap")
		}
	}
	// Appending to x must not clobber y (capacity is clipped).
	_ = append(x, 9, 9, 9)
	for i := range y {
		if y[i] != 2 {
			t.Fatal("append through earlier allocation clobbered later one")
		}
	}
}

func TestArenaReset(t *testing.T) {
	a := NewArena(64)
	alloc(a, 100)
	a.Reset()
	if footprint(a) != 0 {
		t.Fatal("reset must clear accounting")
	}
}

func TestArenaSlabsGrowGeometrically(t *testing.T) {
	// A near-empty arena must cost kilobytes, not a full slab, and a full
	// one must still reach the standard slab size.
	a := NewArena(0)
	a.copyRef([]byte("one key"))
	if footprint(a) != minSlabSize {
		t.Fatalf("first slab is %d bytes, want %d", footprint(a), minSlabSize)
	}
	used := len("one key")
	for ; used < 4*DefaultSlabSize; used += 100 {
		alloc(a, 100)
	}
	sizes := map[int]int{}
	for _, s := range a.slabs {
		sizes[len(s)]++
	}
	for n := minSlabSize; n < DefaultSlabSize; n *= 2 {
		if sizes[n] != 1 {
			t.Fatalf("%d slabs of %d bytes, want exactly one on the way up: %v", sizes[n], n, sizes)
		}
	}
	if sizes[DefaultSlabSize] < 2 || footprint(a) > 2*used {
		t.Fatalf("slabs %v hold %d bytes for %d used", sizes, footprint(a), used)
	}
}

func TestArenaResetRecyclesDirtySlabsInOrder(t *testing.T) {
	a := NewArena(1 << 10) // slabs of 1 KB from the start
	first := alloc(a, 600)
	alloc(a, 600) // second slab
	big := alloc(a, 5000)
	a.Reset()
	if len(a.free) != 2 {
		t.Fatalf("%d slabs recycled, want the two standard ones (oversized dropped)", len(a.free))
	}
	// Refill: the same slabs come back in the same order.
	again := alloc(a, 600)
	if &again[0] != &first[0] {
		t.Fatal("refill did not start in the slab the fill started in")
	}
	if next := alloc(a, 5000); &next[0] == &big[0] {
		t.Fatal("oversized slab was recycled")
	}
}

func TestArenaSkipsRecycledSlabTooSmall(t *testing.T) {
	// Fill with small allocations, reset, refill with allocations that do
	// not fit the small early slabs: they are passed over, not lost — the
	// next reset still holds every slab.
	a := NewArena(0)
	for footprint(a) < 64<<10 {
		alloc(a, 64)
	}
	n := len(a.slabs)
	a.Reset()
	alloc(a, 10<<10)
	a.Reset()
	if len(a.free) != n {
		t.Fatalf("%d slabs after a refill that skipped some, want %d", len(a.free), n)
	}
	sizes := func() (out []int) {
		for i := len(a.free) - 1; i >= 0; i-- {
			out = append(out, len(a.free[i]))
		}
		return out
	}()
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatalf("recycled slabs out of allocation order: %v", sizes)
		}
	}
}

func TestTablesShareOneArena(t *testing.T) {
	a := NewArena(0)
	h := hashlib.NewFamily(1).New()
	t1, t2 := NewTable(h, a, 16), NewTable(h, a, 16)
	put(t1, []byte("alpha"), 1)
	put(t2, []byte("beta"), 2)
	// Resetting one table must leave the other's keys intact: the arena
	// belongs to whoever owns both.
	t1.Reset()
	put(t1, []byte("gamma"), 3)
	if v, ok := get(t2, []byte("beta")); !ok || v != 2 {
		t.Fatalf("beta = %d,%v after the other table's reset", v, ok)
	}
	if keys := slotKeys(t2); len(keys) != 1 || keys[0] != "beta" {
		t.Fatalf("t2 keys = %q", keys)
	}
}

func TestTableRestartIteratesLikeAFreshTable(t *testing.T) {
	// Iteration is slot order, and slot order depends on the capacities the
	// table grew through. Reset keeps the grown capacity; Restart must not,
	// or a recycled table's iteration order — which is a map task's chunk
	// contents — differs from a newly built one's.
	h := hashlib.NewFamily(1).New()
	order := func(tb *Table, n int) []string {
		for i := 0; i < n; i++ {
			put(tb, []byte(fmt.Sprintf("key-%d", i)), uint64(i))
		}
		return slotKeys(tb)
	}
	fresh := order(NewTable(h, NewArena(0), 64), 100)

	recycled := NewTable(h, NewArena(0), 64)
	order(recycled, 5000) // grow well past what 100 keys need
	recycled.Restart()
	if recycled.Len() != 0 {
		t.Fatalf("restarted table holds %d keys", recycled.Len())
	}
	if got := order(recycled, 100); !reflect.DeepEqual(got, fresh) {
		t.Fatal("restarted table iterates in a different order than a fresh one")
	}

	kept := NewTable(h, NewArena(0), 64)
	order(kept, 5000)
	kept.Reset()
	if got := order(kept, 100); reflect.DeepEqual(got, fresh) {
		t.Fatal("Reset was expected to keep the grown capacity (and so a different slot order); the test no longer tells Restart from Reset")
	}
}

func TestTablePutGet(t *testing.T) {
	tb := newTable(4)
	put(tb, []byte("a"), 1)
	put(tb, []byte("b"), 2)
	put(tb, []byte("a"), 3) // overwrite
	if v, ok := get(tb, []byte("a")); !ok || v != 3 {
		t.Fatalf("a = %d,%v", v, ok)
	}
	if v, ok := get(tb, []byte("b")); !ok || v != 2 {
		t.Fatalf("b = %d,%v", v, ok)
	}
	if _, ok := get(tb, []byte("c")); ok {
		t.Fatal("missing key found")
	}
	if tb.Len() != 2 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestTableAdd(t *testing.T) {
	tb := newTable(4)
	if got := tb.Add([]byte("k"), 5); got != 5 {
		t.Fatalf("first add = %d", got)
	}
	if got := tb.Add([]byte("k"), 7); got != 12 {
		t.Fatalf("second add = %d", got)
	}
}

func TestTableSlotInsertedFlag(t *testing.T) {
	tb := newTable(4)
	e, inserted := tb.Slot([]byte("x"))
	if !inserted {
		t.Fatal("first Slot must report an insert")
	}
	tb.SetVal(e, 1)
	if again, inserted := tb.Slot([]byte("x")); inserted || again != e {
		t.Fatalf("second Slot = %d,%v, want entry %d and no insert", again, inserted, e)
	}
}

func TestTableSetVal(t *testing.T) {
	tb := newTable(4)
	put(tb, []byte("a"), 1)
	put(tb, []byte("b"), 2)
	e, _ := tb.Slot([]byte("a"))
	tb.SetVal(e, 9)
	if v, _ := get(tb, []byte("a")); v != 9 {
		t.Fatalf("a = %d, want 9", v)
	}
	if v, _ := get(tb, []byte("b")); v != 2 || tb.Len() != 2 {
		t.Fatalf("b = %d, len = %d; SetVal must touch only its entry", v, tb.Len())
	}
}

func TestTableDelete(t *testing.T) {
	tb := newTable(4)
	put(tb, []byte("a"), 1)
	put(tb, []byte("b"), 2)
	if !tb.Delete([]byte("a")) {
		t.Fatal("delete existing failed")
	}
	if tb.Delete([]byte("a")) {
		t.Fatal("double delete should fail")
	}
	if _, ok := get(tb, []byte("a")); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := get(tb, []byte("b")); !ok || v != 2 {
		t.Fatal("surviving key broken after delete")
	}
	// Reinsert after tombstone.
	put(tb, []byte("a"), 9)
	if v, ok := get(tb, []byte("a")); !ok || v != 9 {
		t.Fatal("reinsert after tombstone failed")
	}
	if tb.Len() != 2 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestTableGrowthKeepsAllKeys(t *testing.T) {
	tb := newTable(4)
	const n = 10000
	for i := 0; i < n; i++ {
		put(tb, []byte(fmt.Sprintf("key-%d", i)), uint64(i))
	}
	if tb.Len() != n {
		t.Fatalf("len = %d", tb.Len())
	}
	for i := 0; i < n; i++ {
		if v, ok := get(tb, []byte(fmt.Sprintf("key-%d", i))); !ok || v != uint64(i) {
			t.Fatalf("key-%d = %d,%v", i, v, ok)
		}
	}
}

func TestTableElemsVisitsAllLiveKeys(t *testing.T) {
	tb := newTable(4)
	for _, k := range []string{"a", "b", "c"} {
		e, _ := tb.Slot([]byte(k))
		tb.SetElem(e, []byte(k+k))
	}
	tb.Delete([]byte("b"))
	got := map[string]string{}
	tb.Elems(func(k, elem []byte) bool {
		got[string(k)] = string(elem)
		return true
	})
	if len(got) != 2 || got["a"] != "aa" || got["c"] != "cc" {
		t.Fatalf("elems = %v", got)
	}
	// Early termination.
	calls := 0
	tb.Elems(func(k, elem []byte) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop visited %d", calls)
	}
}

// A walk in pieces — ElemsInFrom and InOrderFrom resumed at each returned
// cursor, stopping after every k keys — visits what one ElemsIn or InOrder
// visits, in its order, over a grown table with deleted keys, and ends with
// -1 from the piece that reaches the end.
func TestWalkInPiecesMatchesWholeWalk(t *testing.T) {
	tb := newTable(4)
	for i := range 300 {
		e, _ := tb.Slot([]byte(fmt.Sprintf("k%03d", i)))
		tb.SetElem(e, []byte(fmt.Sprint(i)))
	}
	for i := 0; i < 300; i += 7 {
		tb.Delete([]byte(fmt.Sprintf("k%03d", i)))
	}
	var slots, order []string
	tb.ElemsIn(0, func(k, elem []byte) bool { slots = append(slots, string(k)+"="+string(elem)); return true })
	tb.InOrder(func(k, elem []byte, _ uint64) bool { order = append(order, string(k)+"="+string(elem)); return true })
	for _, k := range []int{1, 5, 64, len(slots), 1000} {
		walk := func(piece func(from int, visit func(k, elem []byte) bool) int) (got []string) {
			for from, pieces := 0, 0; from >= 0; pieces++ {
				n := 0
				from = piece(from, func(key, elem []byte) bool {
					got = append(got, string(key)+"="+string(elem))
					n++
					return n < k
				})
				if pieces > len(slots) {
					t.Fatalf("k=%d: the walk does not end", k)
				}
			}
			return got
		}
		if got := walk(func(from int, visit func(k, elem []byte) bool) int { return tb.ElemsInFrom(0, from, visit) }); !reflect.DeepEqual(got, slots) {
			t.Errorf("k=%d: ElemsInFrom in pieces visited %d keys, ElemsIn %d, or in another order", k, len(got), len(slots))
		}
		if got := walk(func(from int, visit func(k, elem []byte) bool) int {
			return tb.InOrderFrom(from, func(key, elem []byte, _ uint64) bool { return visit(key, elem) })
		}); !reflect.DeepEqual(got, order) {
			t.Errorf("k=%d: InOrderFrom in pieces visited %d keys, InOrder %d, or in another order", k, len(got), len(order))
		}
	}
}

// A fold that grows an element through Scratch leaves the arena exactly as
// one that grows it on the heap from Elem: the same bytes, the same region
// capacities and the same slab use, step for step — below the scratch bound
// and past it, for results shorter and longer than len(elem)+need, and with
// a Reset in between (the scratch survives it).
func TestScratchPlacesLikeTheHeap(t *testing.T) {
	viaScratch, viaHeap := newTable(16), newTable(16)
	keys := []string{"a", "b", "c"}
	for round := range 2 {
		for step := range 2100 {
			k := []byte(keys[step%len(keys)])
			// Mostly 8-byte growths; every 5th result is 3 bytes longer
			// than asked for, every 7th 2 bytes shorter than what it held.
			x := bytes.Repeat([]byte{byte('a' + step%26)}, 8)
			fold := func(elem []byte) []byte {
				switch {
				case step%7 == 6 && len(elem) > 2:
					return elem[:len(elem)-2]
				case step%5 == 4:
					return append(append(elem, x...), "+++"...)
				}
				return append(elem, x...)
			}
			for _, tb := range []*Table{viaScratch, viaHeap} {
				e, _ := tb.Slot(k)
				var elem []byte
				if tb == viaScratch {
					elem = tb.Scratch(e, len(x))
					if n := len(tb.Elem(e)) + len(x); n > cap(tb.Elem(e)) && n <= minSlabSize && cap(elem) < n {
						t.Fatalf("round %d step %d: scratch capacity %d for a need of %d", round, step, cap(elem), n)
					}
				} else {
					elem = tb.Elem(e)
				}
				tb.SetElem(e, fold(elem))
			}
			e1, _ := viaScratch.Slot(k)
			e2, _ := viaHeap.Slot(k)
			got, want := viaScratch.Elem(e1), viaHeap.Elem(e2)
			if !bytes.Equal(got, want) || cap(got) != cap(want) {
				t.Fatalf("round %d step %d: key %s holds %d bytes in a %d-byte region, want %d in %d",
					round, step, k, len(got), cap(got), len(want), cap(want))
			}
			if a, b := viaScratch.arena, viaHeap.arena; len(a.slabs) != len(b.slabs) || len(a.cur) != len(b.cur) {
				t.Fatalf("round %d step %d: arena at slab %d with %d bytes left, want slab %d with %d",
					round, step, len(a.slabs), len(a.cur), len(b.slabs), len(b.cur))
			}
		}
		if cap(viaScratch.arena.scratch) != minSlabSize {
			t.Fatalf("round %d: scratch holds %d bytes, want the %d-byte bound", round, cap(viaScratch.arena.scratch), minSlabSize)
		}
		for _, tb := range []*Table{viaScratch, viaHeap} {
			tb.Reset()
			tb.arena.Reset()
		}
	}
}

// Property: the table behaves exactly like map[string]uint64 under a random
// operation sequence of puts, adds, and deletes.
func TestTableModelProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Val  uint64
	}
	f := func(ops []op) bool {
		tb := newTable(4)
		model := map[string]uint64{}
		for _, o := range ops {
			key := []byte(fmt.Sprintf("k%d", o.Key%32))
			switch o.Kind % 3 {
			case 0:
				put(tb, key, o.Val)
				model[string(key)] = o.Val
			case 1:
				tb.Add(key, o.Val)
				model[string(key)] += o.Val
			case 2:
				delete(model, string(key))
				tb.Delete(key)
			}
		}
		if tb.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := get(tb, []byte(k))
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestListStoreAppendIterate(t *testing.T) {
	s := NewListStore(NewArena(0))
	l := s.NewList()
	recs := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, r := range recs {
		s.Append(l, r)
	}
	got := records(s, l)
	if len(got) != 3 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("rec %d = %q", i, got[i])
		}
	}
}

func TestListStoreManyListsIndependent(t *testing.T) {
	s := NewListStore(NewArena(0))
	var ids []ListID
	for i := 0; i < 50; i++ {
		ids = append(ids, s.NewList())
	}
	for round := 0; round < 20; round++ {
		for i, id := range ids {
			s.Append(id, []byte(fmt.Sprintf("list%d-rec%d", i, round)))
		}
	}
	for i, id := range ids {
		recs := records(s, id)
		if len(recs) != 20 {
			t.Fatalf("list %d has %d records", i, len(recs))
		}
		for r, rec := range recs {
			want := fmt.Sprintf("list%d-rec%d", i, r)
			if string(rec) != want {
				t.Fatalf("list %d rec %d = %q, want %q", i, r, rec, want)
			}
		}
	}
}

// A list's chunks double from minChunk as it grows and stop at maxChunk.
func TestListStoreChunksDouble(t *testing.T) {
	s := NewListStore(NewArena(0))
	l := s.NewList()
	for i := 0; i < 4000; i++ {
		s.Append(l, []byte("0123456789"))
	}
	var sizes []int
	for ci := s.lists[l].head; ci >= 0; ci = s.chunks[ci].next {
		sizes = append(sizes, len(s.chunks[ci].buf))
	}
	var want []int
	for size := minChunk; size <= maxChunk; size *= 2 {
		want = append(want, size)
	}
	want = append(want, maxChunk)
	if !reflect.DeepEqual(sizes, want) {
		t.Fatalf("chunk sizes = %v, want %v", sizes, want)
	}
	if got := len(records(s, l)); got != 4000 {
		t.Fatalf("records = %d, want 4000", got)
	}
}

func TestListStoreLargeRecords(t *testing.T) {
	s := NewListStore(NewArena(0))
	l := s.NewList()
	big := make([]byte, 40000) // bigger than maxChunk
	for i := range big {
		big[i] = byte(i)
	}
	s.Append(l, big)
	s.Append(l, []byte("small"))
	recs := records(s, l)
	if !bytes.Equal(recs[0], big) || string(recs[1]) != "small" {
		t.Fatal("large record round trip failed")
	}
}

func TestListStoreEmptyList(t *testing.T) {
	s := NewListStore(NewArena(0))
	l := s.NewList()
	if len(records(s, l)) != 0 {
		t.Fatal("fresh list must be empty")
	}
}

// Property: any sequence of appends across interleaved lists is returned
// exactly, in order, per list.
func TestListStoreProperty(t *testing.T) {
	f := func(assign []uint8, payload []byte) bool {
		s := NewListStore(NewArena(128))
		const nLists = 4
		var ids [nLists]ListID
		for i := range ids {
			ids[i] = s.NewList()
		}
		model := make([][][]byte, nLists)
		for i, a := range assign {
			l := int(a) % nLists
			end := i + 5
			if end > len(payload) {
				end = len(payload)
			}
			start := i
			if start > len(payload) {
				start = len(payload)
			}
			rec := payload[start:end]
			s.Append(ids[l], rec)
			model[l] = append(model[l], append([]byte(nil), rec...))
		}
		for l := 0; l < nLists; l++ {
			got := records(s, ids[l])
			if len(got) != len(model[l]) {
				return false
			}
			for i := range got {
				if !bytes.Equal(got[i], model[l][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
