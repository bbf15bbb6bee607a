package resident

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/sim"
	"onepass/internal/workloads"
)

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

// A reduce task finalizes its table on the pool through recycled batches
// (engine.OutputCollector.Finalize): finalizing 200 keys inline allocates
// nothing once warm, whatever the reduce. Discarded output is sized only;
// kept output grows the part file's bytes as one Emit per pair grows them —
// by doubling, which here averages to under one object per finalize. The
// event-loop finalize this replaced allocated one object more per task, 32
// B: the emit callback runReduceTask built for it (measured on a copy of
// that tree), and the same bytes besides.
func TestAllocBudgetEmitAll(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	const keys, vals = 200, 4
	cc := gen.DefaultClickConfig()
	for _, tc := range []struct {
		name      string
		job       engine.Job
		val       func(v int) []byte
		keptBytes uint64
	}{
		{"per-user-count", workloads.PerUserCount(cc).Job, func(int) []byte { return []byte("1") }, 6144},
		{"sessionization", workloads.Sessionization(cc).Job,
			func(v int) []byte { return []byte(fmt.Sprintf("%d /page-%d", 100*v, v)) }, 24582},
	} {
		for _, discard := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/discard=%v", tc.name, discard), func(t *testing.T) {
				env := sim.New()
				cl := cluster.New(env, cluster.DefaultConfig())
				rt := engine.NewRuntime(env, cl, dfs.New(cl, 64<<10, 1))
				job := tc.job
				job.Name, job.Reducers, job.OutputPath, job.DiscardOutput = "finalize", 1, "out", discard
				oc := rt.NewOutputCollector(&job, &engine.Result{})
				table := newFoldTable(job.Fold())
				for i := range keys {
					key := []byte(fmt.Sprintf("user-%04d", i))
					for v := range vals {
						table.fold(key, tc.val(v), 0)
					}
				}
				bytes := tc.keptBytes
				if discard {
					bytes = 0
				}
				env.Go("t", func(p *sim.Proc) {
					allocBudget(t, 20, func() { table.emitAll(p, oc, 0, cl.Node(0), engine.DefaultCosts()) }, 0, bytes)
					oc.Close(p, 0)
				})
				env.Run()
			})
		}
	}
}
