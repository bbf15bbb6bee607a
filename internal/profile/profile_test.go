package profile

import (
	"strings"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/metrics"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

const ms = sim.Millisecond

// TestComputeRejectsSpanDefects: a span the runtime had to force-close, a
// zero-length span and a negative span each fail Compute rather than skew
// the analysis.
func TestComputeRejectsSpanDefects(t *testing.T) {
	// A task that never closes its span, run through the runtime's own
	// finalization, which force-closes it at the horizon and counts it.
	env := sim.New()
	c := cluster.New(env, cluster.DefaultConfig())
	rt := engine.NewRuntime(env, c, dfs.New(c, 1<<20, 1))
	env.Go("leaky-task", func(p *sim.Proc) {
		rt.Begin(metrics.Span{Name: engine.SpanMap})
		p.Sleep(5 * ms)
	})
	env.Run()
	leaked := &engine.Result{}
	rt.FinishResult(leaked)
	if leaked.Counters.Get(engine.CtrTimelineForceClosed) != 1 {
		t.Fatal("the runtime did not force-close the leaked span — test is vacuous")
	}
	if _, err := Compute(trace.NewLog(), leaked); err == nil || !strings.Contains(err.Error(), "force-closed") {
		t.Errorf("Compute on a force-closed span: err = %v", err)
	}

	for _, tc := range []struct {
		want          string
		start, finish sim.Duration
	}{
		{"zero-length span", 3 * ms, 3 * ms},
		{"negative span", 5 * ms, 2 * ms},
	} {
		tl := metrics.NewTimeline()
		tl.Begin(metrics.Span{Name: engine.SpanMap, Start: sim.Time(tc.start)}).End(sim.Time(tc.finish))
		res := &engine.Result{Makespan: 10 * ms, Timeline: tl, Counters: metrics.NewCounters()}
		if _, err := Compute(trace.NewLog(), res); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compute on a %s: err = %v", tc.want, err)
		}
	}
}

// TestCriticalPathSyntheticChain hand-builds the canonical shape — two map
// waves on one slot feeding a reduce with shuffle/merge/reduce phases — and
// pins the exact segment sequence, including the slot-wait gap, startup,
// and finalize tail.
func TestCriticalPathSyntheticChain(t *testing.T) {
	mk := func(name string, phase bool, node, task int, start, end sim.Duration) metrics.Span {
		return metrics.Span{Name: name, Phase: phase, Node: node, Task: task,
			Start: sim.Time(start), Finish: sim.Time(end)}
	}
	spans := []metrics.Span{
		// Map 0 runs [1,5]ms; map 1 waits for the slot, runs [6,12]ms.
		mk("map", false, 0, 0, 1*ms, 5*ms),
		mk("map", false, 0, 1, 6*ms, 12*ms),
		// Reduce 0 runs [2,20]ms: shuffle ingest to 13, merge to 16, final
		// reduce scan to 20.
		mk("reduce", false, 1, 0, 2*ms, 20*ms),
		mk("shuffle", true, 1, 0, 2*ms, 13*ms),
		mk("merge", true, 1, 0, 13*ms, 16*ms),
		mk("reduce", true, 1, 0, 16*ms, 20*ms),
	}
	makespan := 21 * ms // 1ms of job-completion bookkeeping after the reduce

	segs, err := criticalPath(spans, makespan)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind     string
		start    sim.Duration
		duration sim.Duration
	}{
		{"startup", 0, 1 * ms},
		{"map", 1 * ms, 4 * ms},  // map 0
		{"wait", 5 * ms, 1 * ms}, // slot gap before map 1
		{"map", 6 * ms, 6 * ms},  // map 1 — the barrier-binding attempt
		{"shuffle", 12 * ms, 1 * ms},
		{"merge", 13 * ms, 3 * ms},
		{"reduce", 16 * ms, 4 * ms},
		{"finalize", 20 * ms, 1 * ms},
	}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments, want %d: %+v", len(segs), len(want), segs)
	}
	for i, w := range want {
		if segs[i].Kind != w.kind || segs[i].Start != sim.Time(w.start) || segs[i].Duration() != w.duration {
			t.Errorf("segment %d = %s [%s +%s], want %s [%s +%s]",
				i, segs[i].Kind, segs[i].Start, segs[i].Duration(), w.kind, sim.Time(w.start), w.duration)
		}
	}

	comp := pathComposition(segs, makespan)
	var sum sim.Duration
	for _, ks := range comp {
		sum += ks.Time
	}
	if sum != makespan {
		t.Errorf("composition sums to %s, want %s", sum, makespan)
	}
}

// TestCriticalPathRejectsDisconnectedDAG: a span ending after the declared
// makespan must be a hard error, not a silently clipped report.
func TestCriticalPathRejectsDisconnectedDAG(t *testing.T) {
	spans := []metrics.Span{
		{Name: "map", Node: 0, Task: 0, Start: sim.Time(1 * ms), Finish: sim.Time(30 * ms)},
	}
	if _, err := criticalPath(spans, 20*ms); err == nil {
		t.Error("span past makespan accepted")
	}
	if _, err := criticalPath(nil, 20*ms); err == nil {
		t.Error("empty span set accepted")
	}
}

// TestAttributionTilesExactly builds synthetic series with awkward
// fractions and a non-aligned makespan, and requires the six causes to sum
// to the makespan exactly, with the documented residual precedence.
func TestAttributionTilesExactly(t *testing.T) {
	bucket := 10 * ms
	mkSeries := func(name string, vals ...float64) *metrics.Series {
		s := metrics.NewSeries(name, "x", bucket)
		for i, v := range vals {
			s.Set(sim.Time(sim.Duration(i)*bucket), v)
		}
		return s
	}
	res := &engine.Result{
		// 3.5 buckets: the last is partial.
		Makespan: 35 * ms,
		// Bucket 0: pure cpu 1/3 (non-representable fraction). Bucket 1:
		// cpu+iowait filling the bucket. Bucket 2: nothing but network
		// bytes. Bucket 3 (partial): idle.
		CPUUtil:      mkSeries("cpu", 1.0/3, 0.25, 0, 0),
		Iowait:       mkSeries("iowait", 0, 0.75, 0, 0),
		BytesRead:    mkSeries("br", 100, 0, 0, 0),
		BytesWritten: mkSeries("bw", 0, 0, 0, 0),
		NetBytes:     mkSeries("net", 0, 0, 800, 0),
	}
	shares, err := attribute(res, nil, res.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	total := make(map[Cause]sim.Duration)
	var sum sim.Duration
	for _, s := range shares {
		total[s.Cause] = s.Time
		sum += s.Time
	}
	if sum != res.Makespan {
		t.Fatalf("attribution sums to %s, want %s", sum, res.Makespan)
	}
	// Bucket 0 residual goes to disk (bytes read); bucket 2 entirely to
	// network; bucket 3 (partial, 5ms) to scheduler-idle.
	if total[CauseNet] != 10*ms {
		t.Errorf("network = %s, want 10ms", total[CauseNet])
	}
	if total[CauseIdle] != 5*ms {
		t.Errorf("scheduler-idle = %s, want 5ms", total[CauseIdle])
	}
	if total[CauseIowait] != 15*ms/2 {
		t.Errorf("iowait = %s, want 7.5ms (0.75 of bucket 1)", total[CauseIowait])
	}
	if total[CauseDisk] == 0 {
		t.Error("disk-queue got nothing despite bucket-0 residual with disk bytes")
	}
}

// TestAttributionBarrierClassification: residual time under an open shuffle
// phase with no disk or network signal classifies as barrier-wait.
func TestAttributionBarrierClassification(t *testing.T) {
	bucket := 10 * ms
	flat := func(name string, vals ...float64) *metrics.Series {
		s := metrics.NewSeries(name, "x", bucket)
		for i, v := range vals {
			s.Set(sim.Time(sim.Duration(i)*bucket), v)
		}
		return s
	}
	res := &engine.Result{
		Makespan:     20 * ms,
		CPUUtil:      flat("cpu", 0, 0),
		Iowait:       flat("iowait", 0, 0),
		BytesRead:    flat("br", 0, 0),
		BytesWritten: flat("bw", 0, 0),
		NetBytes:     flat("net", 0, 0),
	}
	spans := []metrics.Span{
		// Shuffle phase open across bucket 0 only.
		{Name: engine.SpanShuffle, Phase: true, Node: 0, Task: 0,
			Start: 0, Finish: sim.Time(10 * ms)},
	}
	shares, err := attribute(res, spans, res.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	total := make(map[Cause]sim.Duration)
	for _, s := range shares {
		total[s.Cause] = s.Time
	}
	if total[CauseBarrier] != 10*ms {
		t.Errorf("barrier-wait = %s, want 10ms", total[CauseBarrier])
	}
	if total[CauseIdle] != 10*ms {
		t.Errorf("scheduler-idle = %s, want 10ms", total[CauseIdle])
	}
}

func TestInFlightTrack(t *testing.T) {
	tl := metrics.NewTimeline()
	span := func(s metrics.Span, finish sim.Time) { tl.Begin(s).End(finish) }
	// Two overlapping maps; map 1 ends exactly when map 2 starts (handoff).
	span(metrics.Span{Name: "map", Node: 0, Task: 0}, 3000)
	span(metrics.Span{Name: "map", Node: 1, Task: 1, Start: 1000}, 2000)
	span(metrics.Span{Name: "map", Node: 1, Task: 2, Start: 2000}, 4000)
	// A phase span with the same name must not leak into the task view.
	span(metrics.Span{Name: "map", Phase: true, Node: 0, Task: 0}, 500)

	tr := inFlightTrack("maps-in-flight", tl.Spans(), "map")
	want := []trace.CounterPoint{
		{At: 0, Value: 1},
		{At: 1000, Value: 2},
		{At: 2000, Value: 2}, // handoff collapses to the final same-instant value
		{At: 3000, Value: 1},
		{At: 4000, Value: 0},
	}
	if len(tr.Points) != len(want) {
		t.Fatalf("got %d points, want %d: %+v", len(tr.Points), len(want), tr.Points)
	}
	for i, w := range want {
		if tr.Points[i] != w {
			t.Errorf("point %d = %+v, want %+v", i, tr.Points[i], w)
		}
	}
}

// TestReportRendersEveryBlock sanity-checks the text renderer over a real
// synthetic profile structure.
func TestReportRendersEveryBlock(t *testing.T) {
	h := metrics.NewHistogram()
	h.Record(int64(5 * ms))
	rp := &RunProfile{
		Job: "sessionization", Engine: "hadoop", Makespan: 21 * ms,
		Attribution: []Share{{Cause: CauseCPU, Time: 21 * ms, Share: 1}},
		CriticalPath: []Segment{
			{Kind: "map", Node: 0, Task: 1, Start: 0, End: sim.Time(21 * ms)},
		},
		PathComposition: []KindShare{{Kind: "map", Time: 21 * ms, Share: 1}},
		Phases: []PhaseStats{{Scope: "task", Name: "map", Count: 1,
			Total: 5 * ms, Skew: 1, Hist: h}},
		TopSlack: []SlackEntry{{Kind: "map", Node: 0, Task: 1, Slack: 2 * ms}},
		Shuffle: ShuffleStats{Transfers: 4, TotalBytes: 4096, MaxPartition: 2,
			MaxBytes: 2048, Imbalance: 2.0,
			Partitions: []PartitionBytes{{Partition: 2, Bytes: 2048}}},
		Nodes: []NodeUtil{{Node: 0, Busy: 21 * ms}},
	}
	out := rp.Report()
	for _, want := range []string{
		"run profile: sessionization / hadoop",
		"makespan attribution",
		"critical path",
		"composition:",
		"span statistics",
		"most slack",
		"shuffle: 4 transfers",
		"node utilization",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
