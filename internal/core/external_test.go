package core

import (
	"fmt"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/workloads"
)

// newTestReduceCtx builds a reduceCtx over a 2-node simulated cluster with
// the given budget, plus the env to drive processes.
func newTestReduceCtx(t *testing.T, budget int64, buckets int) (*sim.Env, *reduceCtx) {
	t.Helper()
	env := sim.New()
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 2
	cl := cluster.New(env, ccfg)
	rt := engine.NewRuntime(env, cl, dfs.New(cl, 64<<10, 1))
	job := workloads.PerUserCount(smallClicks()).Job
	job.Name = "ext-test"
	job.Reducers = 1
	opts := Plan(Incremental).Defaults
	opts.SpillBuckets = buckets
	rc := newReduceCtx(&hashJob{
		JobRun: &engine.JobRun{RT: rt, Job: &job, Opts: opts, Costs: engine.DefaultCosts()},
	}, cl.Node(0), 0)
	rc.budget = budget
	return env, rc
}

func TestSpillSetRoundTripThroughBuckets(t *testing.T) {
	env, rc := newTestReduceCtx(t, 1<<20, 4)
	env.Go("t", func(p *sim.Proc) {
		ss := newSpillSet(rc, 0, "t")
		want := map[string]uint64{}
		for i := 0; i < 300; i++ {
			key := []byte(fmt.Sprintf("k%03d", i%50))
			ss.add(p, ss.bucketOf(key), key, []byte("1"), formIncoming)
			want[string(key)]++
		}
		if !ss.anySpilled() {
			t.Error("nothing spilled")
		}
		got := map[string]uint64{}
		for b := 0; b < 4; b++ {
			if !ss.hasData(b) {
				continue
			}
			ss.processBucket(p, b, nil, func(k, s []byte) {
				got[string(k)] = workloads.CountState(s)
			})
		}
		if len(got) != len(want) {
			t.Errorf("keys = %d, want %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s = %d, want %d", k, got[k], v)
			}
		}
	})
	env.Run()
}

func TestSpillSetExtraEntriesMergeWithFile(t *testing.T) {
	env, rc := newTestReduceCtx(t, 1<<20, 2)
	env.Go("t", func(p *sim.Proc) {
		ss := newSpillSet(rc, 0, "t")
		key := []byte("shared")
		b := ss.bucketOf(key)
		ss.add(p, b, key, []byte("7"), formIncoming)
		resident := []byte("35")
		var got uint64
		ss.processBucket(p, b, []entry{{key: key, payload: resident, f: formState}},
			func(k, s []byte) { got = workloads.CountState(s) })
		if got != 42 {
			t.Errorf("merged count = %d, want 42", got)
		}
	})
	env.Run()
}

func TestSpillSetRecursionOnOversizedBucket(t *testing.T) {
	// A budget so small that any loaded bucket must recurse at least once.
	env, rc := newTestReduceCtx(t, 600, 2)
	env.Go("t", func(p *sim.Proc) {
		ss := newSpillSet(rc, 0, "t")
		want := map[string]uint64{}
		for i := 0; i < 200; i++ {
			key := []byte(fmt.Sprintf("key-%04d", i))
			ss.add(p, ss.bucketOf(key), key, []byte("1"), formIncoming)
			want[string(key)]++
		}
		got := map[string]uint64{}
		for b := 0; b < 2; b++ {
			if ss.hasData(b) {
				ss.processBucket(p, b, nil, func(k, s []byte) {
					got[string(k)] += workloads.CountState(s)
				})
			}
		}
		if len(got) != len(want) {
			t.Errorf("keys = %d, want %d (recursion lost or duplicated keys)", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s = %d, want %d", k, got[k], v)
			}
		}
	})
	env.Run()
}

func TestSpillSetSingleOversizedKeyDoesNotRecurseForever(t *testing.T) {
	env, rc := newTestReduceCtx(t, 200, 2)
	// List states (no mapComb): one key accumulating far past the budget.
	job := workloads.Sessionization(smallClicks()).Job
	rc.fold = job.Fold()
	env.Go("t", func(p *sim.Proc) {
		ss := newSpillSet(rc, 0, "t")
		key := []byte("hot-user")
		b := ss.bucketOf(key)
		for i := 0; i < 100; i++ {
			ss.add(p, b, key, []byte(fmt.Sprintf("%d /page", i)), formIncoming)
		}
		vals := 0
		ss.processBucket(p, b, nil, func(k, s []byte) {
			for rest, ok := s, true; ok && len(rest) > 0; vals++ {
				_, rest, ok = kv.NextFrame(rest)
			}
		})
		if vals != 100 {
			t.Errorf("values = %d, want 100", vals)
		}
	})
	env.Run()
	if rc.rt.Counters.Get("core.overbudget.buckets") == 0 {
		t.Fatal("oversized single key should be counted as over-budget, not recursed")
	}
}

func TestSpillSetDeletesFilesAfterProcessing(t *testing.T) {
	env, rc := newTestReduceCtx(t, 1<<20, 2)
	env.Go("t", func(p *sim.Proc) {
		ss := newSpillSet(rc, 0, "t")
		for i := 0; i < 100; i++ {
			key := []byte(fmt.Sprintf("k%d", i))
			ss.add(p, ss.bucketOf(key), key, []byte("1"), formIncoming)
		}
		for b := 0; b < 2; b++ {
			if ss.hasData(b) {
				ss.processBucket(p, b, nil, func(k, s []byte) {})
			}
		}
		if n := len(rc.node.ScratchStore().Names()); n != 0 {
			t.Errorf("%d leftover spill files: %v", n, rc.node.ScratchStore().Names())
		}
	})
	env.Run()
}
