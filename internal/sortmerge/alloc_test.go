package sortmerge

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

// raceEnabled is set when the race detector is built in (race_test.go).
var raceEnabled bool

func TestAllocBudgetMultiPassMerge(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program: 175 objects per merge here")
	}
	runs := mergeRuns()
	allocBudget(t, 10, func() { multiPassMerge(runs) }, 156, 2268640)
}

func TestAllocBudgetRunStream(t *testing.T) {
	enc := streamRunEncoding()
	allocBudget(t, 50, func() { streamRun(enc) }, 27, 1504)
}
