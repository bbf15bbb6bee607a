package memtable

import (
	"fmt"
	"testing"

	"onepass/internal/hashlib"
)

// Allocation budgets for the per-record table paths. Insert exercises the
// Reset-recycling contract: once slots and arena slabs exist, a fill/reset
// cycle must allocate nothing.

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
			if _, ok := tb.Get(k); !ok {
				t.Fatal("key lost")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("update+get allocates %.1f/op, budget 0", avg)
	}
}
