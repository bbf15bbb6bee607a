package experiments

import (
	"fmt"

	"onepass/internal/engine"
	"onepass/internal/workloads"
)

// TableI reproduces "Workloads and their running time in the benchmark":
// data volumes, task counts, and completion times for the four workloads on
// stock Hadoop. Absolute numbers scale with Scale.Factor; the ratios
// (intermediate/input per workload, relative completion ordering) are the
// reproduction targets.
func (s *Session) TableI() *Report {
	rep := &Report{ID: "Table I", Title: "Workloads and their running time (Hadoop engine)"}
	for _, pw := range s.Scale.TableIWorkloads() {
		res := s.Run(runSpec{Workload: pw.Name, Engine: "hadoop", InputGB: pw.InputGB})
		input := res.Counters.Get(engine.CtrMapInputBytes)
		mapOut := res.Counters.Get(engine.CtrMapWrittenBytes)
		spill := res.Counters.Get(engine.CtrReduceSpillBytes)
		out := res.Counters.Get(engine.CtrOutputBytes)
		paperRatio := (pw.MapOutputGB + pw.ReduceSpillGB) / pw.InputGB
		measRatio := (mapOut + spill) / input
		rep.Rows = append(rep.Rows,
			Row{
				Name:     pw.Name + ": intermediate/input",
				Paper:    pct(paperRatio),
				Measured: pct(measRatio),
				Note: fmt.Sprintf("map output %s, reduce spill %s over %s input",
					fmtBytes(mapOut), fmtBytes(spill), fmtBytes(input)),
			},
			Row{
				Name:     pw.Name + ": output/input",
				Paper:    pct(pw.OutputGB / pw.InputGB),
				Measured: pct(out / input),
			},
			Row{
				Name:     pw.Name + ": map/reduce tasks",
				Paper:    fmt.Sprintf("%d / %d", pw.MapTasks, pw.ReduceTasks),
				Measured: fmt.Sprintf("%.0f / %.0f", res.Counters.Get(engine.CtrMapTasks), res.Counters.Get(engine.CtrReduceTasks)),
				Note:     "task counts scale with input/block size",
			},
			Row{
				Name:     pw.Name + ": completion time",
				Paper:    fmt.Sprintf("%.0f min", pw.CompletionMin),
				Measured: fmtDur(res.Makespan),
				Note:     "virtual time at simulation scale",
			},
		)
	}
	return rep
}

// TableII reproduces the map-phase CPU split between the map function
// (including parsing) and sorting: sessionization 61%/39%, per-user count
// 52%/48%.
func (s *Session) TableII() *Report {
	rep := &Report{ID: "Table II", Title: "Map-phase CPU: map function vs sorting (Hadoop engine)"}
	cases := []struct {
		name               string
		paperFn, paperSort float64
	}{
		{"sessionization", 0.61, 0.39},
		{"per-user-count", 0.52, 0.48},
	}
	for _, c := range cases {
		res := s.Run(runSpec{Workload: c.name, Engine: "hadoop", InputGB: 256})
		fn := mapFnCPU(res)
		sort := res.CPU.Seconds(engine.PhaseSort)
		total := fn + sort
		rep.Rows = append(rep.Rows,
			Row{
				Name:     c.name + ": map function share",
				Paper:    pct(c.paperFn),
				Measured: pct(fn / total),
				Note:     fmt.Sprintf("%.1f CPU-s of %.1f map-phase CPU-s", fn, total),
			},
			Row{
				Name:     c.name + ": sorting share",
				Paper:    pct(c.paperSort),
				Measured: pct(sort / total),
				Note:     fmt.Sprintf("%.0fM real comparisons", res.Counters.Get(engine.CtrSortComparisons)/1e6),
			},
		)
	}
	return rep
}

// TableIII reproduces the qualitative comparison of Hadoop, MapReduce
// Online, and the ideal incremental one-pass system — except each claim is
// verified against an actual run rather than asserted.
func (s *Session) TableIII() *Report {
	rep := &Report{ID: "Table III", Title: "Hadoop vs MR Online vs hash engine (verified capabilities)"}
	hd := s.Run(runSpec{Workload: "per-user-count", Engine: "hadoop", InputGB: 64})
	ho := s.Run(runSpec{Workload: "per-user-count", Engine: "hop", InputGB: 64, Snapshots: true})
	hi := s.Run(runSpec{Workload: "per-user-count", Engine: "hash-incremental", InputGB: 64,
		Threshold: 50}) // §IV's "count exceeds a threshold" query

	sortCPU := func(r *engine.Result) string {
		if r.CPU.Seconds(engine.PhaseSort) > 0 {
			return "sort-merge"
		}
		return "hash only"
	}
	incremental := func(r *engine.Result) string {
		_, mapEnd, _ := r.Timeline.PhaseWindow(engine.SpanMap)
		switch {
		case len(r.Snapshots) > 0 && r.FirstOutputAt >= mapEnd:
			return "periodic snapshots only"
		case r.FirstOutputAt < mapEnd:
			return "fully incremental"
		default:
			return "no"
		}
	}
	// The incremental claim for the hash engine is demonstrated with a
	// threshold query (EmitWhen) in SecVIncrementalLatency; here "fully
	// incremental" is evidenced by zero merge comparisons and first output
	// at all-data-arrived.
	inMem := func(r *engine.Result) string {
		if r.Counters.Get(engine.CtrReduceSpillBytes) == 0 {
			return "yes (no reduce spill)"
		}
		return "no (spills)"
	}
	rep.Rows = append(rep.Rows,
		Row{Name: "group-by implementation", Paper: "sort-merge / sort-merge / hash only",
			Measured: fmt.Sprintf("%s / %s / %s", sortCPU(hd), sortCPU(ho), sortCPU(hi))},
		Row{Name: "incremental processing", Paper: "no / snapshots / fully incremental",
			Measured: fmt.Sprintf("%s / %s / %s", incremental(hd), incremental(ho), incremental(hi))},
		Row{Name: "in-memory processing (data < memory)", Paper: "no / no / yes",
			Measured: fmt.Sprintf("%s / %s / %s", inMem(hd), inMem(ho), inMem(hi)),
			Note:     "Hadoop/HOP still write spills while buffering sorted runs"},
	)
	return rep
}

// MapOutputWriteShare reproduces §III.B.2: the synchronous map-output
// write is a small share of a map task's lifetime (paper: 1.3 s of 21.6 s
// ≈ 6%).
func (s *Session) MapOutputWriteShare() *Report {
	res := s.hadoopSessionization()
	writeS := res.Counters.Get(engine.CtrMapOutputWriteSeconds)
	tasks := res.Counters.Get(engine.CtrMapTasks)
	var taskS float64
	for _, sp := range res.Timeline.Spans() {
		if sp.Name == engine.SpanMap {
			taskS += sp.Finish.Sub(sp.Start).Seconds()
		}
	}
	return &Report{
		ID:    "§III.B.2",
		Title: "Cost of the synchronous map-output write",
		Rows: []Row{
			{
				Name:     "write share of map task time",
				Paper:    "6% (1.3s of 21.6s)",
				Measured: pct(writeS / taskS),
				Note: fmt.Sprintf("%.2fs write of %.2fs avg task over %.0f tasks",
					writeS/tasks, taskS/tasks, tasks),
			},
		},
	}
}

// binaryInputRatio probes both encodings of the same logical click data and
// returns bytes-per-record binary/text, so a binary run can be sized to
// process the same record count as its text twin (binary records are
// denser). Pure computation over the deterministic generators — no
// simulation runs.
func (s *Session) binaryInputRatio() float64 {
	cfgT := s.Scale.clickCfg()
	cfgB := cfgT
	cfgB.Binary = true
	const probe = int64(256 << 10)
	countT, countB := 0, 0
	workloads.LineReader(cfgT.Block(0, probe), func([]byte) { countT++ })
	workloads.BinaryClickReader(cfgB.Block(0, probe), func([]byte) { countB++ })
	return float64(countT) / float64(countB)
}

// ParsingCost reproduces §III.B.1: text vs binary (SequenceFile-like)
// input makes almost no difference end to end.
func (s *Session) ParsingCost() *Report {
	text := s.hadoopSessionization()
	bin := s.Run(runSpec{Workload: "sessionization", Engine: "hadoop",
		InputGB: 256 * s.binaryInputRatio(), BinaryInput: true})
	return &Report{
		ID:    "§III.B.1",
		Title: "Cost of parsing: text vs binary input",
		Rows: []Row{
			{
				Name:     "completion time (text vs binary)",
				Paper:    "almost no difference",
				Measured: fmt.Sprintf("%s vs %s", fmtDur(text.Makespan), fmtDur(bin.Makespan)),
				Note:     "job is disk/merge bound, not parse bound",
			},
			{
				Name:     "parse CPU share of total",
				Paper:    "(not reported)",
				Measured: fmt.Sprintf("%s vs %s", pct(text.CPU.Seconds(engine.PhaseParse)/text.CPU.Total()), pct(bin.CPU.Seconds(engine.PhaseParse)/bin.CPU.Total())),
			},
		},
	}
}
