package memtable

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"onepass/internal/hashlib"
)

func newTable(cap int) *Table {
	return NewTable(hashlib.NewFamily(1).New(), NewArena(0), cap)
}

func TestArenaAllocAndCopy(t *testing.T) {
	a := NewArena(128)
	b1 := a.Alloc(10)
	if len(b1) != 10 {
		t.Fatalf("len = %d", len(b1))
	}
	src := []byte("hello")
	c := a.Copy(src)
	src[0] = 'X'
	if string(c) != "hello" {
		t.Fatalf("copy aliased source: %q", c)
	}
	if a.Used() != 15 {
		t.Fatalf("used = %d", a.Used())
	}
	if a.Copy(nil) != nil || a.Alloc(0) != nil {
		t.Fatal("empty alloc should be nil")
	}
}

func TestArenaOversizedAllocation(t *testing.T) {
	a := NewArena(64)
	big := a.Alloc(1000)
	if len(big) != 1000 {
		t.Fatalf("len = %d", len(big))
	}
	if a.Footprint() < 1000 {
		t.Fatalf("footprint = %d", a.Footprint())
	}
}

func TestArenaAllocationsDoNotOverlap(t *testing.T) {
	a := NewArena(64)
	x := a.Alloc(10)
	y := a.Alloc(10)
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
	a.Alloc(100)
	a.Reset()
	if a.Used() != 0 || a.Footprint() != 0 {
		t.Fatal("reset must clear accounting")
	}
}

func TestArenaSlabsGrowGeometrically(t *testing.T) {
	// A near-empty arena must cost kilobytes, not a full slab, and a full
	// one must still reach the standard slab size.
	a := NewArena(0)
	a.Copy([]byte("one key"))
	if a.Footprint() != minSlabSize {
		t.Fatalf("first slab is %d bytes, want %d", a.Footprint(), minSlabSize)
	}
	for a.Used() < 4*DefaultSlabSize {
		a.Alloc(100)
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
	if sizes[DefaultSlabSize] < 2 || a.Footprint() > 2*a.Used() {
		t.Fatalf("slabs %v hold %d bytes for %d used", sizes, a.Footprint(), a.Used())
	}
}

func TestArenaResetRecyclesDirtySlabsInOrder(t *testing.T) {
	a := NewArena(1 << 10) // slabs of 1 KB from the start
	first := a.Alloc(600)
	for i := range first {
		first[i] = 0xEE
	}
	a.Alloc(600) // second slab
	big := a.Alloc(5000)
	a.Reset()
	if len(a.free) != 2 {
		t.Fatalf("%d slabs recycled, want the two standard ones (oversized dropped)", len(a.free))
	}
	// Refill: the same slabs come back in the same order, dirty for Copy
	// (which overwrites) and zeroed by Alloc.
	again := a.Alloc(600)
	if &again[0] != &first[0] {
		t.Fatal("refill did not start in the slab the fill started in")
	}
	for _, c := range again {
		if c != 0 {
			t.Fatal("Alloc handed out dirty bytes from a recycled slab")
		}
	}
	if next := a.Alloc(5000); &next[0] == &big[0] {
		t.Fatal("oversized slab was recycled")
	}
}

func TestArenaSkipsRecycledSlabTooSmall(t *testing.T) {
	// Fill with small allocations, reset, refill with allocations that do
	// not fit the small early slabs: they are passed over, not lost — the
	// next reset still holds every slab.
	a := NewArena(0)
	for a.Footprint() < 64<<10 {
		a.Alloc(64)
	}
	n := len(a.slabs)
	a.Reset()
	a.Alloc(10 << 10)
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
	t1.Put([]byte("alpha"), 1)
	t2.Put([]byte("beta"), 2)
	// Resetting one table must leave the other's keys intact: the arena
	// belongs to whoever owns both.
	t1.Reset()
	t1.Put([]byte("gamma"), 3)
	if v, ok := t2.Get([]byte("beta")); !ok || v != 2 {
		t.Fatalf("beta = %d,%v after the other table's reset", v, ok)
	}
	var keys []string
	t2.Iterate(func(k []byte, _ uint64) bool { keys = append(keys, string(k)); return true })
	if len(keys) != 1 || keys[0] != "beta" {
		t.Fatalf("t2 keys = %q", keys)
	}
	if a.Used() != int64(len("alpha")+len("beta")+len("gamma")) {
		t.Fatalf("arena used = %d", a.Used())
	}
}

func TestTableRestartIteratesLikeAFreshTable(t *testing.T) {
	// Iteration is slot order, and slot order depends on the capacities the
	// table grew through. Reset keeps the grown capacity; Restart must not,
	// or a recycled table's iteration order — which is a map task's chunk
	// contents — differs from a newly built one's.
	h := hashlib.NewFamily(1).New()
	order := func(tb *Table, n int) (keys []string) {
		for i := 0; i < n; i++ {
			tb.Put([]byte(fmt.Sprintf("key-%d", i)), uint64(i))
		}
		tb.Iterate(func(k []byte, _ uint64) bool { keys = append(keys, string(k)); return true })
		return keys
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
	tb.Put([]byte("a"), 1)
	tb.Put([]byte("b"), 2)
	tb.Put([]byte("a"), 3) // overwrite
	if v, ok := tb.Get([]byte("a")); !ok || v != 3 {
		t.Fatalf("a = %d,%v", v, ok)
	}
	if v, ok := tb.Get([]byte("b")); !ok || v != 2 {
		t.Fatalf("b = %d,%v", v, ok)
	}
	if _, ok := tb.Get([]byte("c")); ok {
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

func TestTableUpsertNewFlag(t *testing.T) {
	tb := newTable(4)
	if !tb.Upsert([]byte("x"), func(old uint64, exists bool) uint64 {
		if exists {
			t.Error("first upsert must see exists=false")
		}
		return 1
	}) {
		t.Fatal("first upsert must report new")
	}
	if tb.Upsert([]byte("x"), func(old uint64, exists bool) uint64 {
		if !exists || old != 1 {
			t.Errorf("second upsert saw old=%d exists=%v", old, exists)
		}
		return 2
	}) {
		t.Fatal("second upsert must not report new")
	}
}

func TestTableDelete(t *testing.T) {
	tb := newTable(4)
	tb.Put([]byte("a"), 1)
	tb.Put([]byte("b"), 2)
	if !tb.Delete([]byte("a")) {
		t.Fatal("delete existing failed")
	}
	if tb.Delete([]byte("a")) {
		t.Fatal("double delete should fail")
	}
	if _, ok := tb.Get([]byte("a")); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tb.Get([]byte("b")); !ok || v != 2 {
		t.Fatal("surviving key broken after delete")
	}
	// Reinsert after tombstone.
	tb.Put([]byte("a"), 9)
	if v, ok := tb.Get([]byte("a")); !ok || v != 9 {
		t.Fatal("reinsert after tombstone failed")
	}
	if tb.Len() != 2 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestTableSetValue(t *testing.T) {
	tb := newTable(4)
	tb.Put([]byte("a"), 1)
	if !tb.SetValue([]byte("a"), 42) {
		t.Fatal("SetValue on existing failed")
	}
	if tb.SetValue([]byte("zz"), 1) {
		t.Fatal("SetValue on missing should fail")
	}
	if v, _ := tb.Get([]byte("a")); v != 42 {
		t.Fatalf("v = %d", v)
	}
}

func TestTableGrowthKeepsAllKeys(t *testing.T) {
	tb := newTable(4)
	const n = 10000
	for i := 0; i < n; i++ {
		tb.Put([]byte(fmt.Sprintf("key-%d", i)), uint64(i))
	}
	if tb.Len() != n {
		t.Fatalf("len = %d", tb.Len())
	}
	for i := 0; i < n; i++ {
		if v, ok := tb.Get([]byte(fmt.Sprintf("key-%d", i))); !ok || v != uint64(i) {
			t.Fatalf("key-%d = %d,%v", i, v, ok)
		}
	}
}

func TestTableIterateVisitsAllLiveKeys(t *testing.T) {
	tb := newTable(4)
	want := map[string]uint64{"a": 1, "b": 2, "c": 3}
	for k, v := range want {
		tb.Put([]byte(k), v)
	}
	tb.Delete([]byte("b"))
	got := map[string]uint64{}
	tb.Iterate(func(k []byte, v uint64) bool {
		got[string(k)] = v
		return true
	})
	if len(got) != 2 || got["a"] != 1 || got["c"] != 3 {
		t.Fatalf("iterate = %v", got)
	}
	// Early termination.
	calls := 0
	tb.Iterate(func(k []byte, v uint64) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop visited %d", calls)
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
				tb.Put(key, o.Val)
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
			got, ok := tb.Get([]byte(k))
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
	got := s.Records(l)
	if len(got) != 3 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("rec %d = %q", i, got[i])
		}
	}
	if s.ListLen(l) != 3 {
		t.Fatalf("len = %d", s.ListLen(l))
	}
	if s.ListBytes(l) != int64(len("onetwothree")) {
		t.Fatalf("bytes = %d", s.ListBytes(l))
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
	if s.Lists() != 50 {
		t.Fatalf("lists = %d", s.Lists())
	}
	for i, id := range ids {
		recs := s.Records(id)
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

func TestListStoreLargeRecords(t *testing.T) {
	s := NewListStore(NewArena(0))
	l := s.NewList()
	big := make([]byte, 40000) // bigger than maxChunk
	for i := range big {
		big[i] = byte(i)
	}
	s.Append(l, big)
	s.Append(l, []byte("small"))
	recs := s.Records(l)
	if !bytes.Equal(recs[0], big) || string(recs[1]) != "small" {
		t.Fatal("large record round trip failed")
	}
}

func TestListStoreEmptyList(t *testing.T) {
	s := NewListStore(NewArena(0))
	l := s.NewList()
	if len(s.Records(l)) != 0 || s.ListLen(l) != 0 || s.ListBytes(l) != 0 {
		t.Fatal("fresh list must be empty")
	}
}

func TestListStoreIterateEarlyStop(t *testing.T) {
	s := NewListStore(NewArena(0))
	l := s.NewList()
	for i := 0; i < 10; i++ {
		s.Append(l, []byte{byte(i)})
	}
	n := 0
	s.Iterate(l, func(rec []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("visited %d", n)
	}
}

func TestListStoreUsedBytes(t *testing.T) {
	s := NewListStore(NewArena(0))
	l := s.NewList()
	if s.UsedBytes() != 0 {
		t.Fatal("empty store should use no bytes")
	}
	s.Append(l, make([]byte, 1000))
	if s.UsedBytes() < 1000 {
		t.Fatalf("used = %d", s.UsedBytes())
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
			got := s.Records(ids[l])
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
