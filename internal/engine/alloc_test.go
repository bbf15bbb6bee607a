package engine

import (
	"runtime"
	"runtime/debug"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/sim"
)

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

// A job's fixed cost on a 10-node cluster: the runtime, its collectors and
// its 45 sampled series — 5 for the cluster and 4 per node, their values in
// one slice, the node sets in another, no closure each.
func TestAllocBudgetNewRuntime(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	env := sim.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 10
	c := cluster.New(env, cfg)
	d := dfs.New(c, 64<<10, 1)
	allocBudget(t, 100, func() { NewRuntime(env, c, d) }, 12, 6384)
}
