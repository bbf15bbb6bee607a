package memtable

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"onepass/internal/hashlib"
)

// Allocation budgets for the per-record table paths. Insert exercises the
// Reset-recycling contract: once slots and arena slabs exist, a fill/reset
// cycle must allocate nothing.

// allocBudget is testing.AllocsPerRun with a byte bound: after one warm-up
// call of f, it averages runs calls on one P, so that no OS thread starts in
// between, and with collection off, so that no collector's object counts,
// and fails t unless a call allocates exactly objects heap objects and at
// most a tenth more than bytes.
func allocBudget(t *testing.T, runs int, f func(), objects, bytes uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	gotObjects := (after.Mallocs - before.Mallocs) / uint64(runs)
	gotBytes := (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
	if gotObjects != objects || gotBytes > bytes+bytes/10 {
		t.Errorf("%d objects, %d B per op; budget %d objects, %d B + 10%%", gotObjects, gotBytes, objects, bytes)
	}
}

// raceEnabled is set when the race detector is built in (race_test.go).
var raceEnabled bool

func allocKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user-%07d", i))
	}
	return keys
}

func TestAllocBudgetInsertResetCycle(t *testing.T) {
	// 4096 keys take the arena through several geometric slabs and the
	// table through several growths: after one warm-up cycle every slab size
	// and the grown slot array must come back from Reset.
	keys := allocKeys(4096)
	arena := NewArena(0)
	tb := NewTable(hashlib.NewFamily(1).New(), arena, 64)
	cycle := func() {
		for _, k := range keys {
			tb.Add(k, 1)
		}
		tb.Reset()
		arena.Reset()
	}
	cycle() // warm-up allocates the slabs and settles the slot array
	if len(arena.free) < 3 {
		t.Fatalf("warm-up left %d recycled slabs; the cycle no longer spans the geometric sizes", len(arena.free))
	}
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("insert+reset cycle allocates %.1f/op, budget 0", avg)
	}
}

func TestAllocBudgetUpdateAndGet(t *testing.T) {
	keys := allocKeys(128)
	tb := NewTable(hashlib.NewFamily(1).New(), NewArena(0), 256)
	for _, k := range keys {
		tb.Add(k, 1)
	}
	avg := testing.AllocsPerRun(1000, func() {
		for _, k := range keys {
			tb.Add(k, 1)
			if _, ok := get(tb, k); !ok {
				t.Fatal("key lost")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("update+get allocates %.1f/op, budget 0", avg)
	}
}

// A growing table allocates each entry once: a full table adds a segment as
// large as all the others together and copies nothing, so filling a fresh
// table allocates its final entry capacity — not the sum of every capacity
// it passed through, twice that — plus its index's doublings, the directory
// once the table outgrows head, and the Table itself. The arena is warmed
// first, so its slabs come back from Reset and the keys cost nothing.
func TestAllocBudgetTableGrowth(t *testing.T) {
	keys := allocKeys(4096)
	h, arena := hashlib.NewFamily(1).New(), NewArena(0)
	warm := NewTable(h, arena, 64)
	for _, k := range keys {
		warm.Add(k, 1)
	}
	arena.Reset()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb := NewTable(h, arena, 64)
	first, _ := tb.Slot(keys[0])
	entry0 := tb.at(first)
	for _, k := range keys[1:] {
		tb.Add(k, 1)
	}
	runtime.ReadMemStats(&after)

	if e, inserted := tb.Slot(keys[0]); inserted || e != first || tb.at(e) != entry0 {
		t.Fatalf("first key's entry moved: number %d → %d (inserted %v), same entry %v", first, e, inserted, tb.at(e) == entry0)
	}
	entries := tb.capacity() * int(unsafe.Sizeof(entry{}))
	index := 0
	for slots := 64; slots <= len(tb.parts[0].index); slots *= 2 {
		index += 4 * slots
	}
	directory := 0
	if cap(tb.segs) > len(tb.head) { // appends that outgrew head: at most twice the last
		directory = 2 * cap(tb.segs) * int(unsafe.Sizeof([]entry{}))
	}
	// Size classes round a segment up by a few percent at most.
	budget := entries + entries/64 + index + directory + int(unsafe.Sizeof(Table{}))
	got := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("filling a table with %d keys allocated %d bytes, budget %d", len(keys), got, budget)
	if got > budget {
		t.Fatalf("filling a table with %d keys allocated %d bytes, budget %d (%d B of entries, %d B of index, %d B of directory)",
			len(keys), got, budget, entries, index, directory)
	}
}

// An arena that copies 64K payloads between Resets, as BenchmarkArenaCopy
// does, gets every slab back from Reset: a copy allocates nothing.
func TestAllocBudgetArenaCopy(t *testing.T) {
	a := NewArena(0)
	payload := make([]byte, 48)
	cycle := func() {
		a.Reset()
		for i := 0; i < 1<<16; i++ {
			a.copyRef(payload)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(5, cycle); avg != 0 {
		t.Fatalf("a Reset and 64K copies allocate %.1f, budget 0", avg)
	}
}

// tableSink keeps a built table on the heap, as a caller's would be.
var tableSink *Table

// A partition is a probe index, not a table: building a table costs the same
// objects at 2 and at 20 partitions — the Table, its partition list and one
// allocation holding every partition's initial index — and a one-partition
// table, whose partition sits in the Table, one fewer. Only the index bytes
// grow with the partitions.
func TestAllocBudgetPartitionedTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	h, arena := hashlib.NewFamily(1).New(), NewArena(0)
	build := func(parts int) func() {
		return func() { tableSink = NewPartitionedTable(h, arena, parts, 64) }
	}
	t.Run("1", func(t *testing.T) { allocBudget(t, 100, build(1), 2, 544) })
	t.Run("2", func(t *testing.T) { allocBudget(t, 100, build(2), 3, 928) })
	t.Run("20", func(t *testing.T) { allocBudget(t, 100, build(20), 3, 7072) })
}
