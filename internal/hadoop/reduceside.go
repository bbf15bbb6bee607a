package hadoop

import (
	"fmt"

	"onepass/internal/cluster"
	"onepass/internal/engine"
	"onepass/internal/kv"
	"onepass/internal/metrics"
	"onepass/internal/sim"
	"onepass/internal/sortmerge"
	"onepass/internal/trace"
)

// The reduce-side sort-merge machinery is exported because MapReduce Online
// (internal/hop) is a fork of this engine, exactly as the real HOP forked
// Hadoop: same spill/multi-pass-merge/final-scan data path, different
// shuffle in front of it.

// ReduceSide is one reducer's sort-merge state.
type ReduceSide struct {
	rt    *engine.Runtime
	job   *engine.Job
	costs engine.CostModel
	node  *cluster.Node
	r     int

	Merger   *sortmerge.Merger
	Acc      *sortmerge.Accumulator
	spillSeq int

	// merge serves every merge this reducer runs — spills, HOP's snapshot
	// merges, the final merge — which never overlap. It cannot be shared
	// wider: a snapshot merge suspends inside Stream.Peek while another
	// reducer's merge runs on the same loop.
	merge kv.MergeScratch
}

// NewReduceSide builds the spill/merge state for reducer r on node. Its
// spill combines and reduce scans run inside pooled closures, through the
// executing worker's view of the job (engine.Runtime.StartJobWork).
func NewReduceSide(rt *engine.Runtime, job *engine.Job, costs engine.CostModel,
	node *cluster.Node, r, fanIn int) *ReduceSide {
	rs := &ReduceSide{
		rt: rt, job: job, costs: costs, node: node, r: r,
		Merger: sortmerge.NewMerger(node.ScratchStore(), fmt.Sprintf("%s/red-%04d", job.Name, r), fanIn),
		Acc:    sortmerge.NewAccumulator(rt.TaskMemory(job)),
	}
	// A merge pass rewrites its inputs verbatim, so its serialization cost
	// is known before the merge runs; charging it through the hook overlaps
	// the pooled merge work (MergePass below then charges only comparisons).
	rs.Merger.Charge = func(p *sim.Proc, inBytes int64) {
		node.Compute(p, engine.Dur(float64(2*inBytes), costs.SerializeNsPerByte), engine.PhaseMerge)
	}
	return rs
}

// Add buffers one sorted segment; when the buffer exceeds its budget it is
// spilled and background multi-pass merges run as needed.
func (rs *ReduceSide) Add(p *sim.Proc, segment []byte) {
	if len(segment) == 0 {
		return
	}
	rs.Acc.Add(segment)
	if rs.Acc.Over() {
		rs.Spill(p)
		for rs.Merger.NeedsPass() {
			rs.MergePass(p)
		}
	}
}

// Spill merges the in-memory segments into one sorted on-disk run. When
// the job has a combiner it is applied to each key group on the way out —
// "it can be further applied in a reducer when its data buffer fills up"
// (§II.A) — which shrinks the run but, as §III.B.4 observes, still writes
// the data to disk to wait for a single sorted run.
func (rs *ReduceSide) Spill(p *sim.Proc) {
	if rs.Acc.Segments() == 0 {
		return
	}
	span := rs.rt.Begin(rs.phase(engine.SpanMerge))
	bufBytes := rs.Acc.Bytes()
	segs := rs.Acc.TakeSegments()
	var out []byte
	var cmps int64
	combineInputs := 0
	combines := rs.job.Monoid != nil
	work := rs.rt.StartJobWork(p, rs.job, func(wj *engine.Job) {
		streams := kv.SliceStreams(segs)
		// The spill can never exceed the buffered bytes (combining only
		// shrinks it), so size the output once instead of growing it.
		out = make([]byte, 0, bufBytes)
		group := func(key []byte, vals [][]byte) {
			for _, v := range vals {
				out = kv.AppendPair(out, key, v)
			}
		}
		if combines {
			partial := wj.Fold().Combiner()
			emit := func(k, v []byte) {
				out = kv.AppendPair(out, k, v)
			}
			group = func(key []byte, vals [][]byte) {
				partial(key, vals, emit)
				combineInputs += len(vals)
			}
		}
		kv.MergeGroups(streams, &cmps, &rs.merge, group)
	})
	if !combines {
		// Without a combiner the spill rewrites its input verbatim, so the
		// serialization charge is known up front and overlaps the merge.
		rs.node.Compute(p, engine.Dur(float64(bufBytes), rs.costs.SerializeNsPerByte), engine.PhaseMerge)
	}
	work.Wait()
	if combines {
		rs.node.Compute(p, engine.Dur(float64(combineInputs), rs.costs.CombineNsPerRecord), engine.PhaseCombine)
		rs.node.Compute(p, engine.Dur(float64(cmps), rs.costs.CompareNs)+
			engine.Dur(float64(len(out)), rs.costs.SerializeNsPerByte), engine.PhaseMerge)
	} else {
		rs.node.Compute(p, engine.Dur(float64(cmps), rs.costs.CompareNs), engine.PhaseMerge)
	}
	rs.rt.Counters.Add(engine.CtrMergeComparisons, float64(cmps))
	rs.spillSeq++
	run := sortmerge.WriteRun(p, rs.node.ScratchStore(),
		fmt.Sprintf("%s/red-%04d/spill-%04d", rs.job.Name, rs.r, rs.spillSeq), out)
	rs.rt.Counters.Add(engine.CtrReduceSpillBytes, float64(run.Size()))
	if rs.rt.Auditing() {
		rs.rt.Audit.SpillWritten(rs.node.ID, run.Size())
	}
	rs.Merger.AddRun(run)
	rs.rt.End(span)
	if rs.rt.Tracing() {
		rs.rt.Emit(trace.Spill, "reduce-spill", rs.node.ID, rs.r, 0,
			trace.Num("bytes", float64(run.Size())), trace.Num("spill", float64(rs.spillSeq)))
	}
}

// MergePass runs one charged multi-pass merge step.
func (rs *ReduceSide) MergePass(p *sim.Proc) {
	span := rs.rt.Begin(rs.phase(engine.SpanMerge))
	cmpBefore, outBefore := rs.Merger.Comparisons, rs.Merger.BytesOut
	inBefore := rs.Merger.BytesIn
	rs.Merger.MergePass(p)
	dCmp := rs.Merger.Comparisons - cmpBefore
	dBytes := rs.Merger.BytesOut - outBefore
	if rs.rt.Auditing() {
		rs.rt.Audit.SpillRead(rs.node.ID, rs.Merger.BytesIn-inBefore)
		rs.rt.Audit.SpillWritten(rs.node.ID, dBytes)
	}
	// Serialization was charged through Merger.Charge, overlapping the
	// merge; only the comparison cost depends on the merge's outcome.
	rs.node.Compute(p, engine.Dur(float64(dCmp), rs.costs.CompareNs), engine.PhaseMerge)
	rs.rt.Counters.Add(engine.CtrMergeComparisons, float64(dCmp))
	rs.rt.Counters.Add(engine.CtrReduceSpillBytes, float64(dBytes))
	rs.rt.Counters.Add(engine.CtrMergePasses, 1)
	rs.rt.End(span)
	if rs.rt.Tracing() {
		rs.rt.Emit(trace.MergePass, "merge-pass", rs.node.ID, rs.r, 0,
			trace.Num("bytes", float64(dBytes)), trace.Num("runsLeft", float64(rs.Merger.Runs())))
	}
}

// Finish completes the blocking tail: multi-pass merge down to one wave,
// then the final merge feeding the reduce function, emitting into oc.
func (rs *ReduceSide) Finish(p *sim.Proc, oc *engine.OutputCollector) {
	for rs.Merger.Runs() > rs.Merger.FanIn {
		rs.MergePass(p)
	}
	span := rs.rt.Begin(rs.phase(engine.SpanReduce))
	if rs.rt.Auditing() {
		// The final merge reads every remaining run back off disk exactly
		// once; record it before the reads below.
		rs.rt.Audit.SpillRead(rs.node.ID, rs.Merger.TotalRunBytes())
	}
	// Read the remaining runs up front so the final merge + reduce scan is
	// pure in-memory work a pooled closure can own; the output pairs stage
	// for the collector to replay after the join — as write-behind units when
	// the output is kept, as sizes when it is discarded.
	datas := rs.Merger.ReadRuns(p)
	segs := rs.Acc.TakeSegments()
	// The reduce and framework charges depend only on the total input pair
	// count, which a cheap pre-scan provides — charging them between
	// dispatch and join overlaps the real merge and reduce work.
	inputs := 0
	for _, d := range datas {
		inputs += kv.CountPairs(d)
	}
	for _, s := range segs {
		inputs += kv.CountPairs(s)
	}
	staged := oc.Stage()
	var cmps int64
	work := rs.rt.StartJobWork(p, rs.job, func(wj *engine.Job) {
		cmps, _ = rs.MergeGroupReduce(kv.SliceStreams(datas, segs), wj, staged.Add)
	})
	rs.node.Compute(p, engine.Dur(float64(inputs), rs.costs.ReduceNsPerRecord), engine.PhaseReduce)
	rs.node.Compute(p, engine.Dur(float64(inputs), rs.costs.FrameworkNsPerRecord), engine.PhaseFramework)
	work.Wait()
	rs.node.Compute(p, engine.Dur(float64(cmps), rs.costs.CompareNs), engine.PhaseMerge)
	rs.rt.Counters.Add(engine.CtrMergeComparisons, float64(cmps))
	oc.Replay(p, rs.r, rs.node.ID, &staged)
	rs.Merger.DeleteAll()
	oc.Close(p, rs.r)
	rs.rt.End(span)
}

// phase names one of this reducer's phase spans.
func (rs *ReduceSide) phase(name string) metrics.Span {
	return metrics.Span{Name: name, Phase: true, Node: rs.node.ID, Task: rs.r}
}

// MergeGroupReduce merges sorted streams and applies job's reduce function
// to each key group, returning comparison and input-value counts. Groups
// alias the streams' bytes, in-memory segments and run files alike.
func (rs *ReduceSide) MergeGroupReduce(streams []kv.PairStream, job *engine.Job, emit engine.Emit) (cmps int64, inputs int) {
	kv.MergeGroups(streams, &cmps, &rs.merge, func(key []byte, vals [][]byte) {
		job.Reduce(key, vals, emit)
		inputs += len(vals)
	})
	return cmps, inputs
}
