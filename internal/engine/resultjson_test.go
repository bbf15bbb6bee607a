package engine

import (
	"encoding/json"
	"testing"

	"onepass/internal/metrics"
	"onepass/internal/sim"
)

// sampleResult builds a Result with every field populated the way a real
// run populates them, including the unexported first-output marker.
func sampleResult() *Result {
	cpu := metrics.NewCPUAccount()
	cpu.Add(PhaseMapFn, 1500*sim.Millisecond)
	cpu.Add(PhaseSort, 700*sim.Millisecond)
	ctr := metrics.NewCounters()
	ctr.Add(CtrMapInputBytes, 1<<20)
	ctr.Add(CtrSortComparisons, 12345)
	series := func(name string) *metrics.Series {
		s := metrics.NewSeries(name, "fraction", 250*sim.Millisecond)
		s.Add(0, 0.25)
		s.Add(sim.Time(600*int64(sim.Millisecond)), 1.0/3.0)
		return s
	}
	tl := metrics.NewTimeline()
	tl.Begin(metrics.Span{Name: SpanMap}).End(sim.Time(int64(2 * sim.Second)))
	tl.Begin(metrics.Span{Name: SpanReduce, Phase: true, Start: sim.Time(int64(sim.Second))}).End(sim.Time(int64(3 * sim.Second)))
	return &Result{
		Job: "per-user-count", Engine: "hash-incremental",
		Makespan:    3 * sim.Second,
		Output:      map[string]string{"u1": "7"},
		OutputPairs: 1, OutputBytes: 42,
		FirstOutputAt: sim.Time(int64(sim.Second)), haveFirst: true,
		Snapshots: []Snapshot{{At: sim.Time(int64(sim.Second)), Fraction: 0.25, Pairs: 3}},
		CPU:       cpu, Counters: ctr,
		CPUUtil: series("cpu-util"), Iowait: series("cpu-iowait"),
		BytesRead: series("disk-bytes-read"), BytesWritten: series("disk-bytes-written"),
		NetBytes: series("net-bytes"), Timeline: tl,
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	res := sampleResult()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}

	if got.Makespan != res.Makespan || got.Job != res.Job || got.Engine != res.Engine {
		t.Fatalf("headline mismatch: %s vs %s", got.Summary(), res.Summary())
	}
	if got.FirstOutputAt != res.FirstOutputAt || got.haveFirst != res.haveFirst {
		t.Fatalf("first-output marker lost: %v/%v vs %v/%v",
			got.FirstOutputAt, got.haveFirst, res.FirstOutputAt, res.haveFirst)
	}
	if got.OutputPairs != res.OutputPairs || got.Output["u1"] != "7" {
		t.Fatalf("output lost: %+v", got)
	}
	if len(got.Snapshots) != 1 || got.Snapshots[0] != res.Snapshots[0] {
		t.Fatalf("snapshots lost: %+v", got.Snapshots)
	}
	if got.CPU.Total() != res.CPU.Total() {
		t.Fatalf("CPU total %v != %v", got.CPU.Total(), res.CPU.Total())
	}
	for _, n := range res.Counters.Names() {
		if got.Counters.Get(n) != res.Counters.Get(n) {
			t.Fatalf("counter %s: %v != %v", n, got.Counters.Get(n), res.Counters.Get(n))
		}
	}
	if got.CPUUtil.Len() != res.CPUUtil.Len() || got.CPUUtil.Bucket != res.CPUUtil.Bucket {
		t.Fatal("cpuUtil series mismatch")
	}
	if got.CPUUtil.At(2) != res.CPUUtil.At(2) {
		t.Fatalf("series value mismatch: %v != %v", got.CPUUtil.At(2), res.CPUUtil.At(2))
	}
	if len(got.Timeline.Spans()) != len(res.Timeline.Spans()) {
		t.Fatalf("timeline spans %d != %d", len(got.Timeline.Spans()), len(res.Timeline.Spans()))
	}
	if _, end, ok := got.Timeline.PhaseWindow(SpanReduce); !ok || end != sim.Time(int64(3*sim.Second)) {
		t.Fatalf("timeline phase window lost: %v %v", end, ok)
	}

	// A second marshal of the decoded result must be byte-identical: the
	// run cache and the determinism guarantee both rest on this.
	b2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("re-marshal of decoded result differs from original")
	}
}
