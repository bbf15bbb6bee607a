package experiments

import (
	"strings"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/engines"
	"onepass/internal/sim"
)

// testScale keeps experiment tests fast: a 256 GB paper dataset becomes
// 8 MB.
func testScale() Scale {
	return Scale{Factor: 1.0 / 32000, BlockSize: 512 << 10, Nodes: 10, Reducers: 20,
		SampleInterval: 25 * sim.Millisecond}
}

func TestTableIShapes(t *testing.T) {
	s := NewSession(testScale())
	rep := s.TableI()
	if len(rep.Rows) != 16 {
		t.Fatalf("rows = %d, want 16 (4 metrics x 4 workloads)", len(rep.Rows))
	}
	// Qualitative Table I shape: sessionization's intermediate/input ratio
	// dwarfs the counting workloads'.
	sess := s.Run(runSpec{Workload: "sessionization", Engine: "hadoop", InputGB: 256})
	puc := s.Run(runSpec{Workload: "per-user-count", Engine: "hadoop", InputGB: 256})
	ratio := func(r *engine.Result) float64 {
		return (r.Counters.Get(engine.CtrMapOutputBytes) + r.Counters.Get(engine.CtrReduceSpillBytes)) /
			r.Counters.Get(engine.CtrMapInputBytes)
	}
	if ratio(sess) < 10*ratio(puc) {
		t.Errorf("sessionization intermediate ratio %.3f not >> per-user %.3f", ratio(sess), ratio(puc))
	}
	if ratio(sess) < 1.0 {
		t.Errorf("sessionization intermediate ratio %.3f, paper has 250%%", ratio(sess))
	}
	out := rep.Render()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "sessionization") {
		t.Fatalf("render broken:\n%s", out)
	}
}

func TestTableIISortShareNearPaper(t *testing.T) {
	s := NewSession(testScale())
	res := s.hadoopSessionization()
	fn := mapFnCPU(res)
	sort := res.CPU.Seconds(engine.PhaseSort)
	share := sort / (fn + sort)
	// Paper: 39% for sessionization. Accept a generous band — the claim is
	// "sorting is a significant fraction of map-phase CPU".
	if share < 0.25 || share > 0.55 {
		t.Fatalf("sessionization sort share = %.2f, want ~0.39", share)
	}
	res2 := s.Run(runSpec{Workload: "per-user-count", Engine: "hadoop", InputGB: 256})
	share2 := res2.CPU.Seconds(engine.PhaseSort) / (mapFnCPU(res2) + res2.CPU.Seconds(engine.PhaseSort))
	if share2 <= share {
		t.Fatalf("per-user sort share %.2f should exceed sessionization's %.2f (lighter map fn)", share2, share)
	}
}

func TestFig2ValleyExists(t *testing.T) {
	s := NewSession(testScale())
	sh := shapeOf(s.hadoopSessionization())
	// Ceiling: 2 map slots on 4 cores caps map-phase utilization at 0.5
	// even for fully CPU-bound tasks; ~0.3 means tasks are ~60% CPU.
	if sh.MapMeanUtil < 0.2 {
		t.Fatalf("map phase mean util %.2f too low — cluster underutilized", sh.MapMeanUtil)
	}
	if sh.ValleyUtil > 0.6*sh.MapMeanUtil {
		t.Fatalf("no CPU valley: valley %.2f vs map mean %.2f", sh.ValleyUtil, sh.MapMeanUtil)
	}
	if sh.ValleyIowait <= sh.MapMeanIowait {
		t.Fatalf("no iowait spike: valley %.2f vs map %.2f", sh.ValleyIowait, sh.MapMeanIowait)
	}
	if sh.ValleyReadPeak <= 0 {
		t.Fatal("no disk reads after map phase")
	}
}

func TestFig2eSSDFasterButStillBlocked(t *testing.T) {
	s := NewSession(testScale())
	base := s.hadoopSessionization()
	ssd := s.Run(runSpec{Workload: "sessionization", Engine: "hadoop", InputGB: 256, SSD: true})
	if ssd.Makespan >= base.Makespan {
		t.Fatalf("SSD run %v not faster than %v", ssd.Makespan, base.Makespan)
	}
	sh := shapeOf(ssd)
	if sh.ValleyUtil > 0.7*sh.MapMeanUtil {
		t.Fatalf("SSD removed the valley (%.2f vs %.2f) — it must not", sh.ValleyUtil, sh.MapMeanUtil)
	}
}

func TestFig4HOPSlowerStillBlocked(t *testing.T) {
	s := NewSession(testScale())
	base := s.hadoopSessionization()
	hopRes := s.Run(runSpec{Workload: "sessionization", Engine: "hop", InputGB: 256, Snapshots: true})
	if hopRes.Makespan < base.Makespan {
		t.Fatalf("HOP %v faster than Hadoop %v — paper found it slower", hopRes.Makespan, base.Makespan)
	}
	if len(hopRes.Snapshots) == 0 {
		t.Fatal("HOP produced no snapshots")
	}
	sh := shapeOf(hopRes)
	if sh.ValleyUtil > 0.7*sh.MapMeanUtil {
		t.Fatalf("HOP removed the valley (%.2f vs %.2f)", sh.ValleyUtil, sh.MapMeanUtil)
	}
}

func TestSecVHashWins(t *testing.T) {
	s := NewSession(testScale())
	for _, wl := range []string{"sessionization", "per-user-count"} {
		hd := s.Run(runSpec{Workload: wl, Engine: "hadoop", InputGB: 256})
		hi := s.Run(runSpec{Workload: wl, Engine: "hash-incremental", InputGB: 256})
		if hi.CPU.Total() >= hd.CPU.Total() {
			t.Errorf("%s: hash CPU %.1f not below hadoop %.1f", wl, hi.CPU.Total(), hd.CPU.Total())
		}
		// For the aggregable workload the hash engine must also win on
		// makespan; for sessionization (holistic, list states) the paper
		// only claims comparable I/O, so allow parity within 25%.
		limit := float64(hd.Makespan)
		if wl == "sessionization" {
			limit *= 1.25
		}
		if float64(hi.Makespan) >= limit {
			t.Errorf("%s: hash makespan %v vs hadoop %v (limit %.2fs)", wl, hi.Makespan, hd.Makespan, limit/1e9)
		}
	}
}

func TestSecVSpillReductionOrdersOfMagnitude(t *testing.T) {
	s := NewSession(testScale())
	hd := s.Run(runSpec{Workload: "per-user-count", Engine: "hadoop", InputGB: 256})
	hot := s.Run(runSpec{Workload: "per-user-count", Engine: "hash-hotkey", InputGB: 256, HotCounters: 2048})
	hdSpill := hd.Counters.Get(engine.CtrReduceSpillBytes)
	hotSpill := hot.Counters.Get(engine.CtrReduceSpillBytes)
	if hdSpill == 0 {
		t.Fatal("hadoop did not spill — the segment-count merge trigger (§III.B.4) should force it")
	}
	// Ample memory for aggregate states: the hash engine should spill
	// nothing at all, reproducing the paper's orders-of-magnitude claim.
	if hotSpill*20 > hdSpill {
		t.Fatalf("hot-key spill %v not far below hadoop's %v", hotSpill, hdSpill)
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		ID: "X", Title: "t",
		Rows:    []Row{{Name: "a", Paper: "1", Measured: "2", Note: "n"}},
		Figures: []Figure{{Title: "f", Lines: []string{"l1"}, Notes: []string{"note"}}},
	}
	out := rep.Render()
	for _, want := range []string{"## X — t", "| a", "| 1", "| 2", "l1", "- note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestStreamingIncrementalAnswersFastestAfterArrival(t *testing.T) {
	s := NewSession(testScale())
	spec := runSpec{Workload: "per-user-count", InputGB: 64, StreamPerMinute: 1}
	hdSpec, hiSpec := spec, spec
	hdSpec.Engine = "hadoop"
	hiSpec.Engine = "hash-incremental"
	hd := s.Run(hdSpec)
	hi := s.Run(hiSpec)
	// Both makespans are dominated by the 60s arrival window; the question
	// is the post-arrival lag.
	if hd.Makespan.Seconds() < 60 || hi.Makespan.Seconds() < 60 {
		t.Fatalf("streamed runs finished before the stream: %v / %v", hd.Makespan, hi.Makespan)
	}
	lagHD := hd.Makespan.Seconds() - 60
	lagHI := hi.Makespan.Seconds() - 60
	if lagHI >= lagHD {
		t.Fatalf("hash post-arrival lag %.2fs not below hadoop's %.2fs", lagHI, lagHD)
	}
}

func TestStreamedMapsStartDuringArrival(t *testing.T) {
	s := NewSession(testScale())
	res := s.Run(runSpec{Workload: "per-user-count", Engine: "hash-incremental",
		InputGB: 64, StreamPerMinute: 1})
	mapStart, mapEnd, ok := res.Timeline.PhaseWindow(engine.SpanMap)
	if !ok {
		t.Fatal("no map spans")
	}
	// Map tasks must track arrivals: the first starts when the first block
	// lands (at 60s/#blocks into the stream), the last near the stream's
	// end.
	if mapStart.Seconds() > 31 {
		t.Fatalf("first map at %v — should start when the first block arrives", mapStart)
	}
	if mapEnd.Seconds() < 55 {
		t.Fatalf("last map at %v — tasks did not track the arrival schedule", mapEnd)
	}
}

// TestServiceSaturationKnee renders the service experiment at test scale
// and checks the open-loop fleet exhibits a latency knee: overload p95 well
// above underload p95 for every engine, with all fairness audits clean
// (ServiceSaturation panics on any invariant failure).
func TestServiceSaturationKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run service sweep")
	}
	s := NewSession(testScale())
	rep := s.ServiceSaturation()
	if n := len(engines.List); len(rep.Figures) != n || len(rep.Rows) != n {
		t.Fatalf("%d figures and %d rows for %d registered engines", len(rep.Figures), len(rep.Rows), n)
	}
	for _, f := range rep.Figures {
		// One line per load point per tenant.
		if len(f.Lines) != 2*len(serviceLoadMults) {
			t.Errorf("%s: %d lines, want %d", f.Title, len(f.Lines), 2*len(serviceLoadMults))
		}
	}
	out := rep.Render()
	if !strings.Contains(out, "latency knee") || !strings.Contains(out, "hash-incremental") {
		t.Fatalf("render broken:\n%s", out)
	}
}

// TestResidentIterativeChain: the chained-PageRank experiment must show the
// resident engine reading zero disk after the init stage while agreeing
// bit-for-bit with the disk engine's final ranks.
func TestResidentIterativeChain(t *testing.T) {
	s := NewSession(testScale())
	rep := s.ResidentIterative()
	if len(rep.Rows) != residentIterations+4 {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), residentIterations+4)
	}
	var agree, afterInit *Row
	for i := range rep.Rows {
		switch rep.Rows[i].Name {
		case "final ranks":
			agree = &rep.Rows[i]
		case "disk reads after init":
			afterInit = &rep.Rows[i]
		}
	}
	if agree == nil || agree.Note != "bit-identical" {
		t.Fatalf("final ranks disagree: %+v", agree)
	}
	if afterInit == nil || afterInit.Measured != "0.0 MB" {
		t.Fatalf("resident chain read disk after init: %+v", afterInit)
	}
	if afterInit.Paper == "0.0 MB" {
		t.Fatalf("disk engine read no disk after init — the comparison is vacuous: %+v", afterInit)
	}
}
