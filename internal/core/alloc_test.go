package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"onepass/internal/engine"
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

// combinerSink keeps a combiner on the heap, as a map task's is.
var combinerSink *mapCombiner

// indexGrowths returns how often a partition's index of tableSlots slots
// doubles while n keys are inserted: before each insert, once live keys
// fill 70 % of it.
func indexGrowths(n int) (g int) {
	for slots := tableSlots; (n-1)*10 >= slots*7; slots *= 2 {
		g++
	}
	return g
}

// A map task's combine state is one table whatever the reducer count: one
// task's combine over a fixed block — 4,096 pairs of 1,000 keys, ample
// budget — costs the same objects at R = 1 and at R = 20 but for the
// partitions' index growths (five doublings of one index against one each
// of twenty) and the partition list a one-partition table keeps inline.
func TestAllocBudgetMapCombiner(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	const keys, pairs = 1000, 4096
	fold := workloads.PerUserCount(smallClicks()).Job.Fold()
	key, one := make([][]byte, keys), []byte("1")
	for i := range key {
		key[i] = []byte(fmt.Sprintf("user-%04d", i))
	}
	combine := func(R int) func() {
		return func() {
			mc := newMapCombiner(R, fold, 1<<30, 4096)
			for i := range pairs {
				k := i * 7 % keys
				mc.add(k%R, key[k], one)
			}
			combinerSink = mc
		}
	}
	const r1, r20 = 25, 41
	if growths := 20*indexGrowths(keys/20) - indexGrowths(keys); r20-r1 != growths+1 {
		t.Fatalf("pins %d and %d differ by %d objects, want the %d extra index growths and the partition list", r1, r20, r20-r1, growths)
	}
	t.Run("R=1", func(t *testing.T) { allocBudget(t, 20, combine(1), r1, 70986) })
	t.Run("R=20", func(t *testing.T) { allocBudget(t, 20, combine(20), r20, 71882) })
}

// A reducer's finalize walks its table on the pool through recycled batches
// (engine.OutputCollector.Finalize): finalizing a table of 200 keys inline
// allocates nothing once warm, whatever the reduce. Discarded output is
// sized only; kept output grows the part file's bytes, as one Emit per pair
// grows them — by doubling, which here averages to under one object per
// finalize. Each figure is the one the event-loop finalize this replaced
// allocated (measured on a copy of that tree).
func TestAllocBudgetFinalize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	const keys, vals = 200, 4
	for _, tc := range []struct {
		name      string
		job       engine.Job
		val       func(v int) []byte
		keptBytes uint64
	}{
		{"per-user-count", workloads.PerUserCount(smallClicks()).Job, func(int) []byte { return []byte("1") }, 6144},
		{"sessionization", workloads.Sessionization(smallClicks()).Job,
			func(v int) []byte { return []byte(fmt.Sprintf("%d /page-%d", 100*v, v)) }, 24582},
	} {
		for _, discard := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/discard=%v", tc.name, discard), func(t *testing.T) {
				env, rc := newTestReduceCtx(t, 1<<30, 4)
				job := tc.job
				job.Name, job.Reducers, job.OutputPath, job.DiscardOutput = "finalize", 1, "out", discard
				rc.job, rc.fold = &job, job.Fold()
				rc.oc = rc.rt.NewOutputCollector(&job, &engine.Result{})
				h := newHashReducer(rc, Incremental)
				for i := range keys {
					key := []byte(fmt.Sprintf("user-%04d", i))
					for v := range vals {
						h.tables[0].fold(key, tc.val(v), formIncoming)
					}
				}
				bytes := tc.keptBytes
				if discard {
					bytes = 0
				}
				env.Go("t", func(p *sim.Proc) {
					allocBudget(t, 20, func() { h.finalize(p) }, 0, bytes)
					rc.oc.Close(p, 0)
				})
				env.Run()
			})
		}
	}
}
