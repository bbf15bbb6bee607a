package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Allocation budgets for the event loop, one per benchmark in bench_test.go
// and on the benchmark's own shape. Blocking calls run once per charge in
// every engine, so a stray allocation there multiplies into millions per
// run.

// raceEnabled is set when the race detector is built in (race_test.go).
var raceEnabled bool

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

func TestAllocBudgetSleepSelfWake(t *testing.T) {
	var avg float64
	selfWake(func(op func()) { avg = testing.AllocsPerRun(1000, op) })
	if avg != 0 {
		t.Fatalf("a self-waking Sleep allocates %.1f/op, budget 0", avg)
	}
}

func TestAllocBudgetSleepInterleaved64(t *testing.T) {
	var avg float64
	sleepInterleaved64(func(round func()) { avg = testing.AllocsPerRun(100, round) })
	if avg != 0 {
		t.Fatalf("a round of 64 interleaved sleeps allocates %.1f, budget 0", avg)
	}
}

func TestAllocBudgetResourceUseContended(t *testing.T) {
	var avg float64
	resourceUseContended(func(round func()) { avg = testing.AllocsPerRun(100, round) })
	if avg != 0 {
		t.Fatalf("a round of 16 contended Resource.Use calls allocates %.1f, budget 0", avg)
	}
}

// A process costs what iter.Pull costs per coroutine, plus its Proc.
func TestAllocBudgetSpawnExit(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program: 520 B per process here")
	}
	spawnExit(func(op func()) { allocBudget(t, 200, op, 13, 456) })
}
