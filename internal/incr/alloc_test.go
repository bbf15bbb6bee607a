package incr

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Allocation budgets for the benchmarks in bench_test.go, on their own ops.

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

func TestAllocBudgetCaptureBase128Blocks(t *testing.T) {
	base, all := benchBase()
	allocBudget(t, 10, func() {
		if err := New("bench").Capture(base, all, benchBlocks, nil); err != nil {
			t.Fatal(err)
		}
	}, 7, 1442185)
}

func TestAllocBudgetCaptureOneBlockDelta(t *testing.T) {
	st, delta := benchDelta(t)
	allocBudget(t, 20, func() {
		if err := st.Capture(delta, []int{benchDirty}, benchBlocks, new(Affected)); err != nil {
			t.Fatal(err)
		}
	}, 17, 385896)
}

func TestAllocBudgetMergeAffected(t *testing.T) {
	st, delta := benchDelta(t)
	affected := new(Affected)
	if err := st.Capture(delta, []int{benchDirty}, benchBlocks, affected); err != nil {
		t.Fatal(err)
	}
	allocBudget(t, 20, func() {
		if _, _, err := st.Merge(affected); err != nil {
			t.Fatal(err)
		}
	}, 5, 278560)
}
