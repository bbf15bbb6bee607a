package engine

import (
	"encoding/json"
	"testing"

	"onepass/internal/metrics"
	"onepass/internal/sim"
)

// sampleResult builds a Result with every field populated the way a real
// run populates them, an audited run's failures included.
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
		OutputPairs: 1, OutputBytes: 42, OutputChecksum: 4649452963127832407,
		FirstOutputAt: sim.Time(int64(sim.Second)),
		Snapshots:     []Snapshot{{At: sim.Time(int64(sim.Second)), Fraction: 0.25, Pairs: 3}},
		CPU:           cpu, Counters: ctr,
		CPUUtil: series("cpu-util"), Iowait: series("cpu-iowait"),
		BytesRead: series("disk-bytes-read"), BytesWritten: series("disk-bytes-written"),
		NetBytes: series("net-bytes"), Timeline: tl,
		AuditFailures: []AuditFailure{{Invariant: "combine-conservation", Where: "map task 0", Detail: "raw 100 bytes != combiner-elided 40 + final 61"}},
	}
}

// TestResultJSONRoundTrip pins the printed form of a Result: every field a
// reader of `runjob -json` relies on is present, and a second marshal is
// byte-identical. Nothing decodes a Result, so the test reads it as a plain
// object.
func TestResultJSONRoundTrip(t *testing.T) {
	res := sampleResult()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	// The checksum is how discarded-output runs compare answers, so a
	// printed result without it compares nothing.
	if sum, ok := got["outputChecksum"].(float64); !ok || sum != float64(res.OutputChecksum) {
		t.Fatalf("outputChecksum = %v, want %d", got["outputChecksum"], res.OutputChecksum)
	}
	if af, ok := got["AuditFailures"].([]any); !ok || len(af) != 1 {
		t.Fatalf("AuditFailures = %v, want one failure", got["AuditFailures"])
	}
	if out, ok := got["output"].(map[string]any); !ok || out["u1"] != "7" {
		t.Fatalf("output = %v, want {u1: 7}", got["output"])
	}
	for _, key := range []string{"cpuUtil", "iowait", "bytesRead", "bytesWritten", "netBytes"} {
		s, ok := got[key].(map[string]any)
		if !ok || s["bucket"] != float64(250*sim.Millisecond) || len(s["vals"].([]any)) != 3 {
			t.Fatalf("series %s = %v, want its bucket and three values", key, got[key])
		}
	}

	b2, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("second marshal differs from the first")
	}
}
