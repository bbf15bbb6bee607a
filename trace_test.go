package onepass

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"onepass/internal/metrics"
)

// tracedRun executes one traced workload run and returns the result plus the
// rendered Chrome trace bytes.
func tracedRun(t *testing.T, e Engine) (*Result, []byte) {
	t.Helper()
	cfg := tinyConfig(e)
	tl := NewTraceLog()
	cfg.Trace = tl
	res, err := RunWorkload(cfg, Sessionization(tinyClicks()), 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// The golden determinism property: the same spec and seed must produce a
// byte-identical Chrome trace, run to run — the simulation is a serialized
// discrete-event world, so event order is fully determined.
func TestTraceByteDeterminism(t *testing.T) {
	for _, e := range []Engine{Hadoop, MapReduceOnline, HashHotKey} {
		_, a := tracedRun(t, e)
		_, b := tracedRun(t, e)
		if !bytes.Equal(a, b) {
			t.Fatalf("%v: two identical runs produced different traces (%d vs %d bytes)", e, len(a), len(b))
		}
	}
}

// Attaching a trace sink must not perturb the simulation: the traced run's
// result must serialize identically to an untraced one.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	for _, e := range Engines() {
		traced, _ := tracedRun(t, e)
		plain, err := RunWorkload(tinyConfig(e), Sessionization(tinyClicks()), 256<<10)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		tj, err := json.Marshal(traced)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tj, pj) {
			t.Fatalf("%v: traced and untraced results differ", e)
		}
	}
}

// The trace must be loadable Chrome trace-event JSON with attributed events
// spanning several distinct names (the acceptance bar for Perfetto use).
func TestTraceChromeShape(t *testing.T) {
	_, raw := tracedRun(t, HashHotKey)
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	names := map[string]bool{}
	begins, ends, attributed := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "B":
			begins++
		case "E":
			ends++
		}
		names[ev.Name] = true
		if _, ok := ev.Args["node"]; ok {
			attributed++
			if _, ok := ev.Args["engine"]; !ok {
				t.Fatalf("event %q has node but no engine attribution", ev.Name)
			}
		}
	}
	if len(names) < 5 {
		t.Fatalf("only %d distinct event names: %v", len(names), names)
	}
	if begins != ends {
		t.Fatalf("unbalanced spans: %d B vs %d E", begins, ends)
	}
	if attributed == 0 {
		t.Fatal("no events carry node attribution")
	}
}

// Per-node sampled series must decompose the cluster aggregates: summing a
// bucket across nodes reproduces the cluster-wide series.
// seriesValues returns s's buckets in order.
func seriesValues(s *metrics.Series) []float64 {
	vals := make([]float64, s.Len())
	for i := range vals {
		vals[i] = s.At(i)
	}
	return vals
}

func TestPerNodeSeriesSumToAggregate(t *testing.T) {
	res, err := RunWorkload(tinyConfig(Hadoop), Sessionization(tinyClicks()), 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerNode) != 4 {
		t.Fatalf("PerNode has %d entries, want one per node", len(res.PerNode))
	}
	checkSum := func(name string, agg func(*Result) []float64, per func(NodeSeries) []float64) {
		total := agg(res)
		for i := range total {
			sum := 0.0
			for _, ns := range res.PerNode {
				vals := per(ns)
				if i < len(vals) {
					sum += vals[i]
				}
			}
			if math.Abs(sum-total[i]) > 1e-6*math.Max(1, math.Abs(total[i])) {
				t.Fatalf("%s bucket %d: per-node sum %v != aggregate %v", name, i, sum, total[i])
			}
		}
	}
	checkSum("disk-bytes-read",
		func(r *Result) []float64 { return seriesValues(r.BytesRead) },
		func(ns NodeSeries) []float64 { return seriesValues(ns.BytesRead) })
	checkSum("disk-bytes-written",
		func(r *Result) []float64 { return seriesValues(r.BytesWritten) },
		func(ns NodeSeries) []float64 { return seriesValues(ns.BytesWritten) })
	// CPU series are per-core-normalized, so the aggregate is the
	// core-weighted mean rather than the sum; with equal cores per node the
	// mean of node utilizations must match the cluster utilization.
	util := seriesValues(res.CPUUtil)
	for i := range util {
		mean := 0.0
		for _, ns := range res.PerNode {
			vals := seriesValues(ns.CPUUtil)
			if i < len(vals) {
				mean += vals[i]
			}
		}
		mean /= float64(len(res.PerNode))
		if math.Abs(mean-util[i]) > 1e-6 {
			t.Fatalf("cpu-util bucket %d: per-node mean %v != aggregate %v", i, mean, util[i])
		}
	}
}

// Progress-vs-accuracy series: the hot-key engine must expose at least one
// point, cumulative pairs must be non-decreasing, and the final point must
// cover the full output.
func TestHotKeyProgressSeries(t *testing.T) {
	res, err := RunWorkload(tinyConfig(HashHotKey), PerUserCount(tinyClicks()), 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Progress) == 0 {
		t.Fatal("hash-hotkey run carries no progress points")
	}
	last := -1
	for i, pp := range res.Progress {
		if pp.Pairs < last {
			t.Fatalf("progress point %d: pairs %d < previous %d", i, pp.Pairs, last)
		}
		last = pp.Pairs
		if pp.MapFraction < -1 || pp.MapFraction > 1 {
			t.Fatalf("progress point %d: map fraction %v out of range", i, pp.MapFraction)
		}
	}
	if last != res.OutputPairs {
		t.Fatalf("final progress point has %d pairs, run emitted %d", last, res.OutputPairs)
	}
}
