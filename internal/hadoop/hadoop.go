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
	"onepass/internal/faults"
	"onepass/internal/hashlib"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/sortmerge"
	"onepass/internal/trace"
)

// PartitionSeed fixes the hash partitioner across all engines so a key maps
// to the same reducer everywhere.
const PartitionSeed = 42

// Partitioner returns the shared cross-engine partitioner.
func Partitioner() engine.Partitioner {
	h := hashlib.Shared(PartitionSeed, 0)
	return func(key []byte, n int) int { return h.Bucket(key, n) }
}

// Options tunes the engine.
type Options struct {
	// FanIn is the multi-pass merge factor F (Hadoop's io.sort.factor).
	FanIn int
	// SegmentLimit caps buffered in-memory shuffle segments per reducer
	// before a forced spill (mapreduce.reduce.merge.inmem.threshold;
	// Hadoop default 1000). Zero disables the trigger.
	SegmentLimit int
	// Faults is the deterministic fault schedule to inject during the run.
	Faults faults.Schedule
}

// Run executes job on rt with the sort-merge engine.
func Run(rt *engine.Runtime, job engine.Job, opts Options) (*engine.Result, error) {
	var res *engine.Result
	if err := Start(rt, job, opts, func(_ *sim.Proc, r *engine.Result) { res = r }); err != nil {
		return nil, err
	}
	rt.Env.Run()
	rt.FinishResult(res)
	return res, nil
}

// Start launches job on rt without driving the simulation: it spawns the
// map/reduce slot processes and the job controller, then returns. The
// controller invokes done at the virtual instant the job completes (after
// JobDone and StopSampling); the caller owns running rt.Env and calling
// rt.FinishResult on the Result done receives. Run wraps Start for the
// one-job-per-simulation case; internal/service uses Start to multiplex
// concurrent jobs over one shared environment.
func Start(rt *engine.Runtime, job engine.Job, opts Options, done func(p *sim.Proc, res *engine.Result)) error {
	if err := job.Validate(); err != nil {
		return err
	}
	if job.Reduce == nil {
		return fmt.Errorf("hadoop: job %q has no reduce function", job.Name)
	}
	blocks, err := rt.InputBlocks(job.InputPath)
	if err != nil {
		return err
	}
	if len(blocks) == 0 {
		return fmt.Errorf("%s: input %q has no blocks (was a chained stage's output discarded?)", "hadoop", job.InputPath)
	}
	fanIn := opts.FanIn
	if fanIn == 0 {
		fanIn = sortmerge.DefaultFanIn
	}
	costs := JobCosts(&job)
	rt.EngineLabel = "hadoop"
	res := &engine.Result{Job: job.Name, Engine: "hadoop"}
	oc := rt.NewOutputCollector(&job, res)
	reg := rt.NewRegistry(len(blocks))
	partition := Partitioner()
	// Fault tolerance: a lost map output is recomputed from its DFS block
	// (replicas permitting) on the node that asked for it.
	blockByTask := make(map[int]*dfs.Block, len(blocks))
	for _, b := range blocks {
		blockByTask[b.Index] = b
	}
	reg.Reexec = func(p *sim.Proc, readerNode int, lost *engine.MapOutput) *engine.MapOutput {
		node := rt.Cluster.Node(readerNode)
		if node.Failed() {
			node = surviving(rt)
		}
		// The recovery attempt is a real map task: span it like one (attempt
		// 1) so the profiler's critical path sees the re-executed work
		// instead of an unexplained hole inside the requesting reducer.
		span := rt.Timeline.Begin(engine.SpanMap, p.Now())
		rt.Emit(trace.TaskStart, engine.SpanMap, node.ID, lost.TaskID, 1)
		out := executeMapAttempt(rt, p, node, &job, costs, blockByTask[lost.TaskID], partition)
		span.End(p.Now())
		rt.Emit(trace.TaskFinish, engine.SpanMap, node.ID, lost.TaskID, 1)
		return out
	}
	rt.InstallFaults(opts.Faults, reg.FailNode)

	rt.StartSampling()
	mapsWG := rt.RunMaps(&job, blocks, func(p *sim.Proc, node *cluster.Node, b *dfs.Block) {
		RunMapTask(rt, p, node, &job, costs, b, partition, reg)
	})
	redsWG := rt.RunReduces(&job, func(p *sim.Proc, node *cluster.Node, r int) {
		runReduceTask(rt, p, node, &job, costs, reg, oc, r, fanIn, opts.SegmentLimit)
	})
	rt.Env.Go("job-controller", func(p *sim.Proc) {
		mapsWG.Wait(p)
		redsWG.Wait(p)
		rt.JobDone()
		rt.StopSampling()
		done(p, res)
	})
	return nil
}

// surviving returns the first compute node that has not failed; recovery
// re-executes lost map tasks there when the requesting node is itself dead.
func surviving(rt *engine.Runtime) *cluster.Node {
	for _, n := range rt.Cluster.ComputeNodes() {
		if !n.Failed() {
			return n
		}
	}
	panic("hadoop: no surviving compute node for re-execution")
}

// RunMapTask is the stock map-side path: map, buffer-sort on (partition,
// key), optional combine, synchronous map-output write, registration for
// pull shuffle. Exported for reuse as other engines' map side where noted.
func RunMapTask(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job,
	costs engine.CostModel, b *dfs.Block, partition engine.Partitioner, reg *engine.Registry) {
	out := executeMapAttempt(rt, p, node, job, costs, b, partition)
	reg.Complete(out)
}

// executeMapAttempt runs the map-side data path without committing, so the
// same code serves first attempts, speculative backups, and post-failure
// re-execution.
func executeMapAttempt(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job,
	costs engine.CostModel, b *dfs.Block, partition engine.Partitioner) *engine.MapOutput {
	// tj is this attempt's own view of the user functions (see TaskJob):
	// the sort and combine below run inside the pooled map closure, where
	// scratch shared with a concurrent attempt would race.
	tj := rt.TaskJob(job)
	// Sort the map output buffer on (partition, key) — the CPU cost of
	// Table II's "Sorting" row, measured from real comparisons — and apply
	// the combiner, all inside the map-task closure; the charges land after
	// the join, in the same order as before.
	var cmps int64
	var rawBytes int64
	var combined *kv.Buffer
	if job.HasCombiner() {
		// Taken here, on the event loop: the closure below may not touch the
		// runtime's free list.
		combined = rt.AcquireBuffer(0)
	}
	combineInputs := 0
	buf, err := rt.ExecuteMapWith(p, node, tj, b, partition, func(buf *kv.Buffer) {
		buf.SortByPartitionKey(&cmps)
		rawBytes = buf.Bytes()
		if combined != nil {
			combineInputs = engine.CombineSorted(tj, buf, combined)
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
		// FetchPart deliveries must balance against it.
		for r, n := range out.PartLen {
			rt.Audit.ShuffleProduced(node.ID, b.Index, r, -1, n)
		}
	}
	// The output file holds copies; both buffers can serve the next task.
	rt.ReleaseBuffer(buf)
	rt.ReleaseBuffer(combined)
	return out
}

func runReduceTask(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job,
	costs engine.CostModel, reg *engine.Registry, oc *engine.OutputCollector, r, fanIn, segLimit int) {

	rs := NewReduceSide(rt, job, costs, node, r, fanIn)
	rs.Acc.SegmentLimit = segLimit

	// Shuffle: pull partitions from completed mappers as they appear.
	shuffleSpan := rt.Timeline.Begin(engine.SpanShuffle, p.Now())
	rt.Emit(trace.PhaseStart, engine.SpanShuffle, node.ID, r, 0)
	seen := 0
	for {
		reg.WaitBeyond(p, seen)
		for ; seen < reg.Completed(); seen++ {
			out := reg.Out(seen)
			data := reg.FetchPart(p, node.ID, out, r)
			if rt.Auditing() {
				rt.Audit.ShuffleIngested(node.ID, out.TaskID, r, -1, int64(len(data)))
			}
			// The accumulator owns data from here on, read-only: it is a
			// slice of the map-output file's immutable frame, which other
			// reducers (and a re-fetch after a fault) read too, and which
			// ConsumePart merely unlinks.
			out.ConsumePart(r)
			rs.Add(p, data)
		}
		if reg.AllDone() {
			break
		}
	}
	shuffleSpan.End(p.Now())
	rt.Emit(trace.PhaseEnd, engine.SpanShuffle, node.ID, r, 0)

	rs.Finish(p, oc)
}
