// Package hadoop is the stock-Hadoop baseline engine: the sort-merge
// implementation of MapReduce group-by exactly as the paper's §II.A
// describes it. Map tasks sort their output buffer on (partition, key),
// optionally combine, and synchronously persist one file per reducer.
// Reducers pull completed map outputs, buffer them in memory, spill merged
// runs when the buffer fills, multi-pass merge whenever the on-disk run
// count reaches the fan-in F, and finally merge everything into one sorted
// scan feeding the reduce function. The blocking merge valley of Fig. 2 and
// the sort CPU of Table II are emergent properties of this code.
package hadoop

import (
	"fmt"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/sortmerge"
)

// Partitioner returns the shared cross-engine partitioner.
func Partitioner() engine.Partitioner { return engine.HashPartitioner() }

// Plan is the stock-Hadoop engine: its map task sorts and persists, its
// reduce task pulls, and a lost map output is recomputed by the same map
// attempt on the node that asked for it.
var Plan = &engine.Plan{
	Label:    "hadoop",
	Defaults: engine.Options{FanIn: sortmerge.DefaultFanIn},
	Setup: func(j *engine.JobRun) (engine.Tasks, error) {
		j.ReexecWith(func(p *sim.Proc, node *cluster.Node, b *dfs.Block, _ *engine.MapOutput) *engine.MapOutput {
			return executeMapAttempt(j, p, node, b)
		})
		return engine.Tasks{
			Map: func(p *sim.Proc, node *cluster.Node, b *dfs.Block) {
				j.Reg.Complete(executeMapAttempt(j, p, node, b))
			},
			Reduce: func(p *sim.Proc, node *cluster.Node, r int) { runReduceTask(j, p, node, r) },
		}, nil
	},
}

// executeMapAttempt is the stock map-side path — map, buffer-sort on
// (partition, key), optional combine, synchronous map-output write — without
// committing, so the same code serves first attempts, speculative backups,
// and post-failure re-execution.
func executeMapAttempt(j *engine.JobRun, p *sim.Proc, node *cluster.Node, b *dfs.Block) *engine.MapOutput {
	rt, job, costs := j.RT, j.Job, j.Costs
	// Sort the map output buffer on (partition, key) — the CPU cost of
	// Table II's "Sorting" row, measured from real comparisons — and apply
	// the combiner, all inside the map-task closure; the charges land after
	// the join, in the same order as before.
	var cmps int64
	var rawBytes int64
	var combined *kv.Buffer
	if job.Monoid != nil {
		// Taken here, on the event loop: the closure below may not touch the
		// runtime's free list.
		combined = rt.AcquireBuffer(0)
	}
	combineInputs := 0
	buf, _, err := rt.ExecuteMapWith(p, node, job, b, j.Partition, nil, func(wj *engine.Job, buf *kv.Buffer) {
		buf.SortByPartitionKey(&cmps)
		rawBytes = buf.Bytes()
		if combined != nil {
			combineInputs = engine.CombineSorted(wj.Fold().Combiner(), buf, combined)
		}
	})
	if err != nil {
		panic(fmt.Sprintf("hadoop: %v", err))
	}
	node.Compute(p, engine.Dur(float64(cmps), costs.CompareNs), engine.PhaseSort)
	rt.Counters.Add(engine.CtrSortComparisons, float64(cmps))

	final := buf
	if combined != nil {
		node.Compute(p, engine.Dur(float64(combineInputs), costs.CombineNsPerRecord), engine.PhaseCombine)
		final = combined
		if rt.Auditing() {
			rt.Audit.CombineSaved(b.Index, rawBytes-final.Bytes())
		}
	}
	out := rt.WriteMapOutput(p, node, job, b.Index, final)
	if rt.Auditing() {
		rt.Audit.MapFinalPairs(b.Index, final.Bytes())
		// Pull shuffle moves whole partitions: record each as one unit so
		// Registry.Pull deliveries must balance against it.
		for r, n := range out.PartLen {
			rt.Audit.ShuffleProduced(node.ID, b.Index, r, -1, n)
		}
	}
	// The output file holds copies; both buffers can serve the next task.
	rt.ReleaseBuffer(buf)
	rt.ReleaseBuffer(combined)
	return out
}

func runReduceTask(j *engine.JobRun, p *sim.Proc, node *cluster.Node, r int) {
	rt := j.RT
	rs := NewReduceSide(rt, j.Job, j.Costs, node, r, j.Opts.FanIn)
	rs.Acc.SegmentLimit = j.Opts.SegmentLimit

	// Shuffle: pull partitions from completed mappers as they appear.
	shuffleSpan := rt.Begin(rs.phase(engine.SpanShuffle))
	j.Reg.Pull(p, node.ID, r, func(data []byte) { rs.Add(p, data) })
	rt.End(shuffleSpan)

	rs.Finish(p, j.OC)
}
