package onepass

import (
	"bytes"
	"strings"
	"testing"

	"onepass/internal/trace"
)

// faultedAt builds a one-failure schedule striking node at a fraction of a
// baseline makespan.
func faultedAt(node int, base Duration, frac float64) FaultSchedule {
	return FaultSchedule{Faults: []Fault{{
		Kind: NodeFailure, Node: node, At: Duration(float64(base) * frac)}}}
}

// workEnd returns when the run's last reduce span closed — the real end of
// work. Makespan itself is padded to the metrics sampler's final tick, so
// timing faults against it would schedule them after the job finished.
func workEnd(t *testing.T, res *Result) Duration {
	t.Helper()
	_, end, ok := res.Timeline.PhaseWindow("reduce")
	if !ok {
		t.Fatal("run has no reduce spans")
	}
	return Duration(end)
}

// TestFaultEquivalenceAcrossEngines is the PR's acceptance statement: every
// engine, hit by a node failure timed to land mid-run, recovers to output
// byte-identical to its fault-free run.
func TestFaultEquivalenceAcrossEngines(t *testing.T) {
	for _, e := range Engines() {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			w := Sessionization(tinyClicks())
			base, err := RunWorkload(tinyConfig(e), w, 256<<10)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyConfig(e)
			cfg.Faults = faultedAt(3, workEnd(t, base), 0.3)
			faulted, err := RunWorkload(cfg, Sessionization(tinyClicks()), 256<<10)
			if err != nil {
				t.Fatal(err)
			}
			if got := faulted.Counters.Get("faults.injected"); got != 1 {
				t.Fatalf("faults.injected = %v, want 1", got)
			}
			if faulted.OutputPairs != base.OutputPairs {
				t.Fatalf("output pairs %d, fault-free %d", faulted.OutputPairs, base.OutputPairs)
			}
			if faulted.OutputChecksum != base.OutputChecksum {
				t.Fatalf("output checksum %016x, fault-free %016x", faulted.OutputChecksum, base.OutputChecksum)
			}
			if len(faulted.Output) != len(base.Output) {
				t.Fatalf("output has %d keys, fault-free %d", len(faulted.Output), len(base.Output))
			}
			for k, v := range base.Output {
				if faulted.Output[k] != v {
					t.Fatalf("key %q = %q, fault-free %q", k, faulted.Output[k], v)
				}
			}
		})
	}
}

// TestFaultDeterminism: the same schedule and seed reproduce the run byte
// for byte, traces included.
func TestFaultDeterminism(t *testing.T) {
	for _, e := range []Engine{Hadoop, MapReduceOnline, HashIncremental} {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			run := func() (*Result, []byte) {
				cfg := tinyConfig(e)
				cfg.Faults = ChaosFaults(7, cfg.Nodes, Duration(200e6)) // 200ms horizon: mid-run for these sizes
				tl := NewTraceLog()
				cfg.Trace = tl
				res, err := RunWorkload(cfg, PerUserCount(tinyClicks()), 256<<10)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := tl.WriteChrome(&buf); err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			res1, trace1 := run()
			res2, trace2 := run()
			if res1.Makespan != res2.Makespan || res1.OutputChecksum != res2.OutputChecksum {
				t.Fatalf("runs diverged: makespan %v vs %v, checksum %016x vs %016x",
					res1.Makespan, res2.Makespan, res1.OutputChecksum, res2.OutputChecksum)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Fatal("traces differ between identical faulted runs")
			}
		})
	}
}

// TestFaultPastCompletionIsCancelled is the regression test for the old
// injector, which slept until the fault time unconditionally and stretched
// the measured makespan even when the job had long finished.
func TestFaultPastCompletionIsCancelled(t *testing.T) {
	w := PerUserCount(tinyClicks())
	base, err := RunWorkload(tinyConfig(Hadoop), w, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(Hadoop)
	cfg.Faults = FaultSchedule{Faults: []Fault{{
		Kind: NodeFailure, Node: 1, At: base.Makespan * 100}}}
	late, err := RunWorkload(cfg, PerUserCount(tinyClicks()), 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if late.Makespan != base.Makespan {
		t.Fatalf("a fault scheduled past completion stretched the makespan: %v vs %v",
			late.Makespan, base.Makespan)
	}
	if got := late.Counters.Get("faults.injected"); got != 0 {
		t.Fatalf("faults.injected = %v, want 0", got)
	}
}

// TestDegradationFaultsSlowButDoNotChangeOutput: the three windowed
// degradations must cost time, never answers.
func TestDegradationFaultsSlowButDoNotChangeOutput(t *testing.T) {
	w := Sessionization(tinyClicks())
	base, err := RunWorkload(tinyConfig(Hadoop), w, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{
		"disk-slow@0s:n1x50",
		"net-slow@0s:n1x50",
		"straggler@0s:n1x50",
	} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			cfg := tinyConfig(Hadoop)
			var err error
			if cfg.Faults, err = ParseFaults(spec); err != nil {
				t.Fatal(err)
			}
			res, err := RunWorkload(cfg, Sessionization(tinyClicks()), 256<<10)
			if err != nil {
				t.Fatal(err)
			}
			if workEnd(t, res) <= workEnd(t, base) {
				t.Fatalf("degradation did not slow the run: %v vs fault-free %v",
					workEnd(t, res), workEnd(t, base))
			}
			if res.OutputChecksum != base.OutputChecksum || res.OutputPairs != base.OutputPairs {
				t.Fatal("degradation changed the output")
			}
		})
	}
}

// TestFaultValidationAtAPI: an invalid schedule is rejected before the run
// starts rather than panicking inside the simulation, and failures count
// once per compute node: a schedule that fails every compute node of a
// split cluster is invalid, one that fails the same node twice is not.
func TestFaultValidationAtAPI(t *testing.T) {
	w := PerUserCount(tinyClicks())
	cfg := tinyConfig(Hadoop)
	cfg.Faults = FaultSchedule{Faults: []Fault{{Kind: NodeFailure, Node: 99, At: 0}}}
	if _, err := RunWorkload(cfg, w, 64<<10); err == nil {
		t.Fatal("out-of-range fault node must be rejected")
	}

	split := tinyConfig(Hadoop)
	split.SplitStorageCompute = true
	var err error
	if split.Faults, err = ParseFaults("fail@0.05s:n2,fail@0.05s:n3"); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(split, w, 64<<10); err == nil || !strings.Contains(err.Error(), "kills all 2 compute nodes") {
		t.Fatalf("failing both compute nodes of a split cluster: err = %v, want a rejection", err)
	}

	twoNodes := tinyConfig(Hadoop)
	twoNodes.Nodes = 2
	base, err := RunWorkload(twoNodes, w, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	end := workEnd(t, base)
	twoNodes.Faults = FaultSchedule{Faults: []Fault{
		{Kind: NodeFailure, Node: 1, At: end / 4}, {Kind: NodeFailure, Node: 1, At: end / 2}}}
	res, err := RunWorkload(twoNodes, w, 256<<10)
	if err != nil {
		t.Fatalf("failing n1 twice on two nodes leaves n0, yet: %v", err)
	}
	if got := res.Counters.Get("faults.injected"); got != 2 {
		t.Fatalf("faults.injected = %v, want 2", got)
	}
	if res.OutputChecksum != base.OutputChecksum {
		t.Fatalf("output %016x, fault-free %016x", res.OutputChecksum, base.OutputChecksum)
	}
}

// TestRecoveryNodeDiesMidRecovery drives the branch of the one recovery
// loop (engine.JobRun.Recover) that a single failure cannot reach, on every
// engine: the node regenerating a dead node's lost output dies itself
// half-way through, and another live node must resume from the frontier
// the dead one left — same output, every ledger balanced.
func TestRecoveryNodeDiesMidRecovery(t *testing.T) {
	for _, e := range Engines() {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			run := func(sched FaultSchedule) (*Result, *TraceLog) {
				t.Helper()
				cfg := tinyConfig(e)
				cfg.Audit = true
				cfg.Faults = sched
				tl := NewTraceLog()
				cfg.Trace = tl
				res, err := RunWorkload(cfg, Sessionization(tinyClicks()), 32*64<<10)
				if err != nil {
					t.Fatal(err)
				}
				return res, tl
			}
			clean, _ := run(FaultSchedule{})
			// Mid map wave, so the dying node takes sealed chunks with it.
			_, mapEnd, ok := clean.Timeline.PhaseWindow("map")
			if !ok {
				t.Fatal("run has no map spans")
			}
			sched := faultedAt(3, Duration(mapEnd), 0.5)

			// Where and when the one-failure run recovers: recovery attempts
			// are the map spans numbered from 1 (first attempts are 0).
			_, tl := run(sched)
			var start, finish trace.Event
			for _, ev := range tl.Events() {
				if ev.Name != "map" || ev.Attempt != 1 {
					continue
				}
				if ev.Type == trace.TaskStart && start.At == 0 {
					start = ev
				}
				if ev.Type == trace.TaskFinish && finish.At == 0 && ev.Task == start.Task {
					finish = ev
				}
			}
			if start.At == 0 || finish.At <= start.At {
				t.Fatalf("the first failure left nothing to recover (recovery span %v..%v)", start.At, finish.At)
			}
			sched.Faults = append(sched.Faults, Fault{
				Kind: NodeFailure, Node: start.Node, At: Duration(start.At + (finish.At-start.At)/2)})

			res, tl := run(sched)
			if got := res.Counters.Get("faults.injected"); got != 2 {
				t.Fatalf("faults.injected = %v, want 2", got)
			}
			moved := false
			for _, ev := range tl.Events() {
				if ev.Type == trace.TaskStart && ev.Name == "map" && ev.Task == start.Task && ev.Attempt == 2 {
					moved = ev.Node != start.Node
				}
			}
			if !moved {
				t.Fatalf("map %d was not recovered a second time on another node after n%d died mid-recovery",
					start.Task, start.Node)
			}
			if res.OutputPairs != clean.OutputPairs || res.OutputChecksum != clean.OutputChecksum {
				t.Fatalf("output %d pairs / %016x, fault-free %d / %016x",
					res.OutputPairs, res.OutputChecksum, clean.OutputPairs, clean.OutputChecksum)
			}
		})
	}
}
