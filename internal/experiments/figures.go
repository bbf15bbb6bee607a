package experiments

import (
	"fmt"

	"onepass/internal/engine"
	"onepass/internal/sim"
)

// figWidth is the sparkline width for rendered figures.
const figWidth = 72

// phaseShape summarizes the blocking-merge signature of a run: CPU
// utilization during the map phase, the post-map valley, and the iowait and
// disk-read behaviour inside the valley.
type phaseShape struct {
	MapMeanUtil    float64
	ValleyUtil     float64 // minimum smoothed utilization after the map phase
	MapMeanIowait  float64
	ValleyIowait   float64 // iowait at the valley
	ValleyReadPeak float64 // peak disk bytes read per second after map phase
	MapEnd         sim.Time
}

func shapeOf(res *engine.Result) phaseShape {
	_, mapEnd, _ := res.Timeline.PhaseWindow(engine.SpanMap)
	bucket := res.CPUUtil.Bucket
	endBucket := int(int64(sim.Duration(res.Makespan)) / int64(bucket))
	mapEndBucket := int(int64(mapEnd) / int64(bucket))
	sh := phaseShape{MapEnd: mapEnd}
	sh.MapMeanUtil = res.CPUUtil.MeanOver(0, mapEndBucket)
	sh.MapMeanIowait = res.Iowait.MeanOver(0, mapEndBucket)
	// The valley of Fig 2 is the between-phase window where the framework
	// re-reads spilled runs, so bound the search to the region with merge
	// I/O: the quiet CPU tail after the last reducer's reads complete is a
	// different (and uninteresting) kind of idle.
	lastRead := mapEndBucket
	for i := mapEndBucket; i < endBucket; i++ {
		if res.BytesRead.At(i) > 0 {
			lastRead = i
		}
	}
	searchEnd := lastRead + 1
	if searchEnd > endBucket-1 {
		searchEnd = endBucket - 1
	}
	// Smoothed minimum over the merge region (3-bucket window).
	sh.ValleyUtil = 2.0
	valleyAt := mapEndBucket
	for i := mapEndBucket; i < searchEnd; i++ {
		v := res.CPUUtil.MeanOver(i, i+3)
		if v < sh.ValleyUtil {
			sh.ValleyUtil = v
			valleyAt = i
		}
	}
	if sh.ValleyUtil > 1.5 { // no post-map region at tiny scales
		sh.ValleyUtil = res.CPUUtil.MeanOver(mapEndBucket, endBucket)
	}
	sh.ValleyIowait = res.Iowait.MeanOver(valleyAt, valleyAt+3)
	for i := mapEndBucket; i < endBucket; i++ {
		if v := res.BytesRead.At(i); v > sh.ValleyReadPeak {
			sh.ValleyReadPeak = v
		}
	}
	return sh
}

// Fig2a reproduces the sessionization task timeline: map, shuffle, merge,
// and reduce task counts over time, with merge activity bridging the gap.
func (s *Session) Fig2a() *Report {
	res := s.hadoopSessionization()
	fig := Figure{Title: "Fig 2(a): task timeline, sessionization on Hadoop"}
	counts := res.Timeline.Counts(res.CPUUtil.Bucket, sim.Time(int64(res.Makespan)))
	for _, phase := range []string{engine.SpanMap, engine.SpanShuffle, engine.SpanMerge, engine.SpanReduce} {
		if series, ok := counts[phase]; ok {
			fig.Lines = append(fig.Lines, seriesLine(phase, series, figWidth))
		}
	}
	byPhase := res.Timeline.CountByPhase()
	mStart, mEnd, _ := res.Timeline.PhaseWindow(engine.SpanMerge)
	_, mapEnd, _ := res.Timeline.PhaseWindow(engine.SpanMap)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("%d map, %d merge, %d reduce spans", byPhase[engine.SpanMap], byPhase[engine.SpanMerge], byPhase[engine.SpanReduce]),
		fmt.Sprintf("background merges start at %v, before the last map ends at %v (paper: 'some periodic background merges take place even before all map tasks complete')", mStart, mapEnd),
		fmt.Sprintf("merge activity extends to %v, past the map phase — the blocking bridge of Fig 2(a)", mEnd),
	)
	return &Report{ID: "Fig 2(a)", Title: "Task timeline (sessionization, Hadoop)", Figures: []Figure{fig}}
}

// Fig2b reproduces the CPU-utilization plot: busy map phase, idle valley
// during the multi-pass merge.
func (s *Session) Fig2b() *Report {
	res := s.hadoopSessionization()
	sh := shapeOf(res)
	fig := Figure{
		Title: "Fig 2(b): CPU utilization, sessionization on Hadoop",
		Lines: []string{seriesLine("cpu-util", res.CPUUtil, figWidth)},
		Notes: []string{
			fmt.Sprintf("map-phase mean utilization %s; post-map valley minimum %s", pct(sh.MapMeanUtil), pct(sh.ValleyUtil)),
			"paper: 'there is an extended period where the CPUs are mostly idle'",
		},
	}
	return &Report{
		ID: "Fig 2(b)", Title: "CPU utilization (sessionization, Hadoop)",
		Rows: []Row{{
			Name:     "post-map CPU valley vs map-phase mean",
			Paper:    "deep valley (mostly idle)",
			Measured: fmt.Sprintf("%s valley vs %s map mean", pct(sh.ValleyUtil), pct(sh.MapMeanUtil)),
		}},
		Figures: []Figure{fig},
	}
}

// Fig2c reproduces the CPU iowait plot: the valley is disk wait.
func (s *Session) Fig2c() *Report {
	res := s.hadoopSessionization()
	sh := shapeOf(res)
	fig := Figure{
		Title: "Fig 2(c): CPU iowait, sessionization on Hadoop",
		Lines: []string{seriesLine("cpu-iowait", res.Iowait, figWidth)},
		Notes: []string{"paper: the idle period 'is largely due to outstanding disk I/O requests'"},
	}
	return &Report{
		ID: "Fig 2(c)", Title: "CPU iowait (sessionization, Hadoop)",
		Rows: []Row{{
			Name:     "iowait in the valley vs map phase",
			Paper:    "spike during merge",
			Measured: fmt.Sprintf("%s valley vs %s map mean", pct(sh.ValleyIowait), pct(sh.MapMeanIowait)),
		}},
		Figures: []Figure{fig},
	}
}

// Fig2d reproduces the disk bytes-read plot: the merge re-reads spilled
// runs.
func (s *Session) Fig2d() *Report {
	res := s.hadoopSessionization()
	sh := shapeOf(res)
	fig := Figure{
		Title: "Fig 2(d): disk bytes read per second, sessionization on Hadoop",
		Lines: []string{seriesLine("bytes-read", res.BytesRead, figWidth)},
		Notes: []string{"paper: 'a large number of bytes read from disk in the same period'"},
	}
	return &Report{
		ID: "Fig 2(d)", Title: "Disk reads (sessionization, Hadoop)",
		Rows: []Row{{
			Name:     "peak post-map read rate",
			Paper:    "read surge during merge",
			Measured: fmtBytes(sh.ValleyReadPeak) + "/s",
		}},
		Figures: []Figure{fig},
	}
}

// Fig2e reproduces the HDD+SSD experiment: moving intermediate data to a
// per-node SSD cuts the runtime substantially (paper: 76 → 43 min) but the
// merge valley persists.
func (s *Session) Fig2e() *Report {
	base := s.hadoopSessionization()
	ssd := s.Run(runSpec{Workload: "sessionization", Engine: "hadoop", InputGB: 256, SSD: true})
	shSSD := shapeOf(ssd)
	speedup := 1 - float64(ssd.Makespan)/float64(base.Makespan)
	fig := Figure{
		Title: "Fig 2(e): CPU utilization with HDD+SSD (intermediate data on SSD)",
		Lines: []string{seriesLine("cpu-util", ssd.CPUUtil, figWidth)},
	}
	return &Report{
		ID: "Fig 2(e)", Title: "Separate storage devices (HDD + SSD)",
		Rows: []Row{
			{
				Name:     "runtime reduction from SSD",
				Paper:    "43% (76 → 43 min)",
				Measured: fmt.Sprintf("%s (%s → %s)", pct(speedup), fmtDur(base.Makespan), fmtDur(ssd.Makespan)),
			},
			{
				Name:     "blocking valley still present",
				Paper:    "yes ('a significant period where CPU utilization is low')",
				Measured: fmt.Sprintf("valley %s vs map mean %s", pct(shSSD.ValleyUtil), pct(shSSD.MapMeanUtil)),
			},
		},
		Figures: []Figure{fig},
	}
}

// Fig2f reproduces the split storage/compute architecture: contention
// relief without SSD speed (paper: 76 → 55 min), blocking remains.
func (s *Session) Fig2f() *Report {
	base := s.hadoopSessionization()
	split := s.Run(runSpec{Workload: "sessionization", Engine: "hadoop", InputGB: 256, Split: true})
	shSplit := shapeOf(split)
	// The paper halved the input for the 5-node compute tier; we keep the
	// input constant and report per-makespan shape instead, noting the
	// substitution.
	fig := Figure{
		Title: "Fig 2(f): CPU utilization with split storage/compute (5+5 nodes)",
		Lines: []string{seriesLine("cpu-util", split.CPUUtil, figWidth)},
	}
	return &Report{
		ID: "Fig 2(f)", Title: "Separate distributed storage system",
		Rows: []Row{
			{
				Name:     "makespan (baseline vs split)",
				Paper:    "76 → 55 min (with input reduced for 5 compute nodes)",
				Measured: fmt.Sprintf("%s → %s (same input on half the compute)", fmtDur(base.Makespan), fmtDur(split.Makespan)),
				Note:     "loses data locality; all input crosses the network",
			},
			{
				Name:     "blocking + I/O remain",
				Paper:    "yes",
				Measured: fmt.Sprintf("valley %s vs map mean %s", pct(shSplit.ValleyUtil), pct(shSplit.MapMeanUtil)),
			},
		},
		Figures: []Figure{fig},
	}
}

// Fig3 reproduces the inverted-index task timeline: the blocking merge
// phase is present in this workload as well.
func (s *Session) Fig3() *Report {
	res := s.Run(runSpec{Workload: "inverted-index", Engine: "hadoop", InputGB: 427})
	fig := Figure{Title: "Fig 3: task timeline, inverted index on Hadoop"}
	counts := res.Timeline.Counts(res.CPUUtil.Bucket, sim.Time(int64(res.Makespan)))
	for _, phase := range []string{engine.SpanMap, engine.SpanShuffle, engine.SpanMerge, engine.SpanReduce} {
		if series, ok := counts[phase]; ok {
			fig.Lines = append(fig.Lines, seriesLine(phase, series, figWidth))
		}
	}
	spill := res.Counters.Get(engine.CtrReduceSpillBytes)
	return &Report{
		ID: "Fig 3", Title: "Inverted index timeline (Hadoop)",
		Rows: []Row{{
			Name:     "merge-phase I/O",
			Paper:    "150 GB ('progress is stopped until local intermediate data is merged')",
			Measured: fmtBytes(spill),
		}},
		Figures: []Figure{fig},
	}
}

// Fig4 reproduces the MapReduce Online measurements: same valley and iowait
// spike, total runtime slightly longer than stock Hadoop, lower map-phase
// CPU utilization with similar total map-phase cycles.
func (s *Session) Fig4() *Report {
	base := s.hadoopSessionization()
	hopRes := s.Run(runSpec{Workload: "sessionization", Engine: "hop", InputGB: 256, Snapshots: true})
	shHop := shapeOf(hopRes)
	shBase := shapeOf(base)
	figs := []Figure{
		{
			Title: "Fig 4(a): CPU utilization, sessionization on MapReduce Online",
			Lines: []string{seriesLine("cpu-util", hopRes.CPUUtil, figWidth)},
		},
		{
			Title: "Fig 4(b): CPU iowait, sessionization on MapReduce Online",
			Lines: []string{seriesLine("cpu-iowait", hopRes.Iowait, figWidth)},
		},
	}
	return &Report{
		ID: "Fig 4", Title: "MapReduce Online (sessionization)",
		Rows: []Row{
			{
				Name:     "total running time vs Hadoop",
				Paper:    "longer than stock Hadoop",
				Measured: fmt.Sprintf("%s vs %s", fmtDur(hopRes.Makespan), fmtDur(base.Makespan)),
			},
			{
				Name:     "valley + iowait spike still present",
				Paper:    "yes ('similar pattern of low values in the middle')",
				Measured: fmt.Sprintf("valley %s, iowait %s", pct(shHop.ValleyUtil), pct(shHop.ValleyIowait)),
			},
			{
				Name:     "map-phase CPU utilization vs Hadoop",
				Paper:    "lower (same total cycles, spread out)",
				Measured: fmt.Sprintf("%s vs %s", pct(shHop.MapMeanUtil), pct(shBase.MapMeanUtil)),
			},
			{
				Name:     "snapshots produced",
				Paper:    "25/50/75% snapshots",
				Measured: fmt.Sprintf("%d snapshot emissions", len(hopRes.Snapshots)),
			},
		},
		Figures: figs,
	}
}
