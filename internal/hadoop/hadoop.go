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
	"math"

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
// reduce task pulls, and a lost map output is rebuilt by the same map path
// and rewritten with only the partitions no reducer has fetched.
var Plan = &engine.Plan{
	Label:    "hadoop",
	Defaults: engine.Options{FanIn: sortmerge.DefaultFanIn},
	Setup: func(j *engine.JobRun) (engine.Tasks, error) {
		return engine.Tasks{
			Map: func(p *sim.Proc, node *cluster.Node, b *dfs.Block) {
				frame := buildFrame(j, p, node, b)
				out := &engine.MapOutput{TaskID: b.Index, Held: make([]int, j.Job.Reducers)}
				j.RT.WriteMapOutput(p, node, j.Job, out, frame.Data, frame.PartLen)
				j.Reg.Complete(out)
			},
			Reduce: func(p *sim.Proc, node *cluster.Node, r int) { runReduceTask(j, p, node, r) },
			Rebuild: func(p *sim.Proc, node *cluster.Node, b *dfs.Block) ([]kv.Chunk, func(int)) {
				return buildFrame(j, p, node, b).Chunks, nil
			},
		}, nil
	},
}

// buildFrame is the stock map-side path up to the map-output write — map,
// buffer-sort on (partition, key), optional combine — and returns the
// output's frame, one chunk per partition, so the same code serves first
// attempts and recovery.
func buildFrame(j *engine.JobRun, p *sim.Proc, node *cluster.Node, b *dfs.Block) *kv.PartitionFrame {
	rt, job, costs := j.RT, j.Job, j.Costs
	// Sort the map output buffer on (partition, key) — the CPU cost of
	// Table II's "Sorting" row, measured from real comparisons — apply the
	// combiner into the buffer's own combine scratch, and lay the result out
	// as the map-output file's frame, all inside the map-task closure: the
	// buffer goes back to the free list at the join, and the charges land
	// after it, in the same order as before.
	combine := job.Monoid != nil
	var cmps, saved, finalBytes int64
	var frame *kv.PartitionFrame
	combineInputs := 0
	_, err := rt.ExecuteMapWith(p, node, job, b, j.Partition, nil, func(wj *engine.Job, buf *kv.Buffer) {
		buf.SortByPartitionKey(&cmps)
		final := buf
		if combine {
			final = buf.Combined()
			combineInputs, saved = engine.CombineSorted(wj.Fold().Combiner(), buf, final)
		}
		finalBytes = final.Bytes()
		// One chunk per partition: only the frame's layout is wanted here.
		frame = kv.PackPartitions(final, job.Reducers, math.MaxInt64)
	})
	if err != nil {
		rt.Fail(p, err)
	}
	node.Compute(p, engine.Dur(float64(cmps), costs.CompareNs), engine.PhaseSort)
	rt.Counters.Add(engine.CtrSortComparisons, float64(cmps))

	if combine {
		node.Compute(p, engine.Dur(float64(combineInputs), costs.CombineNsPerRecord), engine.PhaseCombine)
		if rt.Auditing() {
			rt.Audit.CombineSaved(b.Index, saved)
		}
	}
	if rt.Auditing() {
		rt.Audit.MapFinalPairs(b.Index, finalBytes)
	}
	return frame
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
