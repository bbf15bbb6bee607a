package profile_test

import (
	"bytes"
	"testing"

	"onepass"
	"onepass/internal/sim"
)

func profCfg(e onepass.Engine, workers int) onepass.Config {
	cfg := onepass.DefaultConfig()
	cfg.Engine = e
	cfg.Nodes = 4
	cfg.CoresPerNode = 2
	cfg.BlockSize = 64 << 10
	cfg.Reducers = 4
	cfg.Audit = true
	cfg.Parallelism = workers
	return cfg
}

func clicks() onepass.ClickConfig {
	c := onepass.DefaultClickConfig()
	c.Users = 300
	c.URLs = 150
	return c
}

// runProfile executes one traced run and computes its profile.
func runProfile(t *testing.T, e onepass.Engine, workers int) *onepass.RunProfile {
	t.Helper()
	cfg := profCfg(e, workers)
	tl := onepass.NewTraceLog()
	cfg.Trace = tl
	res, err := onepass.RunWorkload(cfg, onepass.Sessionization(clicks()), 256<<10)
	if err != nil {
		t.Fatalf("%v: run: %v", e, err)
	}
	rp, err := onepass.ComputeProfile(tl, res)
	if err != nil {
		t.Fatalf("%v: profile: %v", e, err)
	}
	return rp
}

// TestProfileInvariantsAllEngines pins the analyzer's arithmetic contracts
// on every engine: attribution tiles the makespan exactly, the critical
// path is contiguous over [0, makespan] and sums to it, and per-node
// utilization tiles the makespan per node. Compute itself asserts all of
// this and errors; here we re-verify from the outside so a silent analyzer
// regression cannot weaken the claim.
func TestProfileInvariantsAllEngines(t *testing.T) {
	for _, e := range onepass.Engines() {
		rp := runProfile(t, e, 0)
		var attrSum sim.Duration
		for _, s := range rp.Attribution {
			if s.Time < 0 {
				t.Errorf("%v: negative attribution %s=%s", e, s.Cause, s.Time)
			}
			attrSum += s.Time
		}
		if attrSum != rp.Makespan {
			t.Errorf("%v: attribution sums to %s, makespan %s", e, attrSum, rp.Makespan)
		}
		var pathSum sim.Duration
		for i, seg := range rp.CriticalPath {
			pathSum += seg.Duration()
			if i > 0 && seg.Start != rp.CriticalPath[i-1].End {
				t.Errorf("%v: critical path disconnected at segment %d", e, i)
			}
		}
		if len(rp.CriticalPath) == 0 || rp.CriticalPath[0].Start != 0 {
			t.Errorf("%v: critical path does not start at 0", e)
		}
		if pathSum != rp.Makespan {
			t.Errorf("%v: critical path sums to %s, makespan %s", e, pathSum, rp.Makespan)
		}
		for _, n := range rp.Nodes {
			if n.Busy+n.Iowait+n.Idle != rp.Makespan {
				t.Errorf("%v: node %d utilization sums to %s, makespan %s",
					e, n.Node, n.Busy+n.Iowait+n.Idle, rp.Makespan)
			}
		}
		if rp.Shuffle.Transfers == 0 || rp.Shuffle.TotalBytes == 0 {
			t.Errorf("%v: no shuffle transfers profiled", e)
		}
		if len(rp.Phases) == 0 {
			t.Errorf("%v: no phase statistics", e)
		}
		// Every engine moves real data: cpu must own a nonzero share, and
		// the path must include map work.
		if rp.Attribution[0].Cause != "cpu" || rp.Attribution[0].Time == 0 {
			t.Errorf("%v: cpu attribution missing or zero: %+v", e, rp.Attribution[0])
		}
		foundMap := false
		for _, ks := range rp.PathComposition {
			if ks.Kind == "map" && ks.Time > 0 {
				foundMap = true
			}
		}
		if !foundMap {
			t.Errorf("%v: critical path has no map time: %+v", e, rp.PathComposition)
		}
	}
}

// TestProfileByteIdenticalAcrossParallelism extends the PR 6 determinism
// oracle to profiles: the JSON bytes of a run's profile must be identical
// whether the run executed serially or on an intra-run worker pool of width
// 1 or 4, for every engine.
func TestProfileByteIdenticalAcrossParallelism(t *testing.T) {
	for _, e := range onepass.Engines() {
		base, err := runProfile(t, e, 0).MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := runProfile(t, e, workers).MarshalIndentJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(base, got) {
				t.Errorf("%v: profile at parallelism %d differs from serial", e, workers)
			}
		}
	}
}

// TestProfileSpanDAGUnderFaults is the bugfix-sweep regression: every
// engine must emit a structurally clean span DAG even through fault
// recovery, with re-executed map attempts visible as spans (attempt >= 1)
// rather than invisible holes in the critical path.
func TestProfileSpanDAGUnderFaults(t *testing.T) {
	for _, e := range onepass.Engines() {
		cfg := profCfg(e, 0)
		sched, err := onepass.ParseFaults("fail@0.02s:n1")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = sched
		tl := onepass.NewTraceLog()
		cfg.Trace = tl
		// 32 blocks so node 1 has completed map outputs to lose when it dies.
		res, err := onepass.RunWorkload(cfg, onepass.Sessionization(clicks()), 32*64<<10)
		if err != nil {
			t.Fatalf("%v: faulted run: %v", e, err)
		}
		if res.Counters.Get("tasks.reexecuted") == 0 {
			t.Fatalf("%v: fault schedule did not trigger re-execution — test is vacuous", e)
		}
		if _, err := onepass.ComputeProfile(tl, res); err != nil {
			t.Errorf("%v: faulted profile: %v", e, err)
			continue
		}
		recovered := 0
		for _, sp := range res.Timeline.Spans() {
			if !sp.Phase && sp.Name == "map" && sp.Attempt >= 1 {
				recovered++
			}
		}
		if recovered == 0 {
			t.Errorf("%v: map tasks re-executed but no recovery attempt spans recorded", e)
		}
	}
}
