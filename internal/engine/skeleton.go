package engine

import (
	"cmp"
	"fmt"
	"slices"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/faults"
	"onepass/internal/hashlib"
	"onepass/internal/kv"
	"onepass/internal/metrics"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// Options are the knobs a launcher may turn, shared by every engine. An
// engine reads the fields that apply to it and ignores the rest; a zero
// numeric field means that engine's own default (Plan.Defaults), not a
// global one — MapReduce Online and resident push 256 KB chunks, the hash
// engines 512 KB.
type Options struct {
	// FanIn is the sort-merge multi-pass merge factor F (Hadoop's
	// io.sort.factor).
	FanIn int
	// SegmentLimit caps buffered in-memory shuffle segments per stock-Hadoop
	// reducer before a forced spill (mapreduce.reduce.merge.inmem.threshold;
	// Hadoop default 1000). Zero disables the trigger.
	SegmentLimit int
	// ChunkBytes is the push granularity: smaller chunks mean earlier
	// delivery but more network operations and reducer-side work.
	ChunkBytes int64
	// BackpressureBytes bounds a reducer's inbound push queue. Past it
	// MapReduce Online stages the chunk to local disk and waits, resident
	// waits holding it in memory, and the hash engines stop pushing the
	// partition and leave its tail for a pull fetch.
	BackpressureBytes int64
	// DisableSnapshots turns off MapReduce Online's snapshot answers at 25,
	// 50 and 75 % of the input.
	DisableSnapshots bool
	// SpillBuckets is the number of hash buckets the hash engines use for
	// spilled/cold data (K in DESIGN.md).
	SpillBuckets int
	// HotKeyCounters sizes the hot-key engine's SpaceSaving sketch.
	HotKeyCounters int
	// ApproximateEarly makes the hot-key engine emit its in-memory hot-key
	// states as an approximate snapshot the moment all input has arrived,
	// before the exact completion pass (§V's early answers for hot keys).
	ApproximateEarly bool
	// Faults is the deterministic fault schedule to inject during the run.
	Faults faults.Schedule
}

// withDefaults fills o's zero numeric fields from d.
func (o Options) withDefaults(d Options) Options {
	o.FanIn = cmp.Or(o.FanIn, d.FanIn)
	o.ChunkBytes = cmp.Or(o.ChunkBytes, d.ChunkBytes)
	o.BackpressureBytes = cmp.Or(o.BackpressureBytes, d.BackpressureBytes)
	o.SpillBuckets = cmp.Or(o.SpillBuckets, d.SpillBuckets)
	o.HotKeyCounters = cmp.Or(o.HotKeyCounters, d.HotKeyCounters)
	return o
}

// Plan is what an engine package contributes to the job skeleton: its
// name, its defaults, and a Setup that builds the engine's own state (push
// channels, sinks) and returns the tasks. Everything
// else about launching a job — Start below — is the same for every engine.
type Plan struct {
	// Label is stamped on every trace event and is the Result's Engine.
	Label string
	// Push gives the job one PushChannel per reducer (JobRun.Channels),
	// bounded by Options.BackpressureBytes and closed after the map barrier
	// once no recovery is in flight.
	Push bool
	// Defaults replaces zero numeric Options fields.
	Defaults Options
	// FrameworkNsPerRecord, when non-zero, is the engine's per-record runtime
	// overhead for jobs that set none, in place of DefaultCosts'.
	FrameworkNsPerRecord float64
	// Setup runs once per job after the shared state in JobRun exists and
	// before any process is spawned. An error aborts the launch.
	Setup func(j *JobRun) (Tasks, error)
}

// Tasks are one job's engine-specific bodies.
type Tasks struct {
	// Map runs one map task over block b inside a map slot's span.
	Map func(p *sim.Proc, node *cluster.Node, b *dfs.Block)
	// Reduce runs reduce task r; phase spans inside it are the engine's.
	Reduce func(p *sim.Proc, node *cluster.Node, r int)
	// Rebuild re-runs block b's map on node, charging its map-side work, and
	// returns the task's output chunks in seal order, each partition's in
	// ascending Seq, with charge(i), chunk i's bill at its push (nil when the
	// engine bills nothing per chunk). Chunk building is deterministic in the
	// block, so the chunks carry the first attempt's bytes under its (task,
	// seq) identities. JobRun.Recover calls it; a job that loses no map
	// output never does.
	Rebuild func(p *sim.Proc, node *cluster.Node, b *dfs.Block) (chunks []kv.Chunk, charge func(i int))
}

// JobRun is the state of one launched job that every engine needs and none
// shapes: Start builds it, Setup and the tasks read it.
type JobRun struct {
	RT  *Runtime
	Job *Job
	// Opts has the plan's defaults applied.
	Opts Options
	// Costs is the job's cost model with every zero field defaulted.
	Costs CostModel
	// Partition maps a key to the same reducer under every engine.
	Partition Partitioner
	Reg       *Registry
	OC        *OutputCollector
	// Channels is each reducer's inbound push queue; nil unless Plan.Push.
	Channels []*PushChannel

	// blocks and rebuild are what a recovery regenerates a lost output from.
	blocks  map[int]*dfs.Block
	rebuild func(p *sim.Proc, node *cluster.Node, b *dfs.Block) ([]kv.Chunk, func(int))
}

// PartitionSeed fixes the hash partitioner across all engines so a key maps
// to the same reducer everywhere.
const PartitionSeed = 42

// HashPartitioner returns the shared cross-engine partitioner.
func HashPartitioner() Partitioner {
	h := hashlib.Shared(PartitionSeed, 0)
	return func(key []byte, n int) int { return h.Bucket(key, n) }
}

// Start launches job on rt under plan without driving the simulation: it
// spawns the fault injectors, the map and reduce slot processes and the job
// controller, then returns. The controller invokes done at the virtual
// instant the job completes (after JobDone and stopping the metrics sampler); the
// caller owns running rt.Env and calling rt.FinishResult on the Result done
// receives. Run wraps Start for the one-job-per-simulation case;
// internal/service uses Start to multiplex concurrent jobs over one shared
// environment.
func Start(rt *Runtime, job Job, opts Options, plan *Plan, done func(p *sim.Proc, res *Result)) error {
	if err := job.Validate(); err != nil {
		return err
	}
	blocks, err := InputBlocks(rt.DFS, job.InputPath)
	if err != nil {
		return err
	}
	if len(blocks) == 0 {
		return fmt.Errorf("%s: input %q has no blocks (was a chained stage's output discarded?)",
			plan.Label, job.InputPath)
	}
	if plan.FrameworkNsPerRecord != 0 && job.Costs.FrameworkNsPerRecord == 0 {
		job.Costs.FrameworkNsPerRecord = plan.FrameworkNsPerRecord
	}
	rt.EngineLabel = plan.Label
	res := &Result{Job: job.Name, Engine: plan.Label}
	j := &JobRun{
		RT: rt, Job: &job,
		Opts:      opts.withDefaults(plan.Defaults),
		Costs:     job.Costs.Merged(),
		Partition: HashPartitioner(),
		OC:        rt.NewOutputCollector(&job, res),
		Reg:       rt.NewRegistry(len(blocks)),
		// Fault tolerance: a lost map output is recomputed from its DFS
		// block, found again by task id.
		blocks: make(map[int]*dfs.Block, len(blocks)),
	}
	for _, b := range blocks {
		j.blocks[b.Index] = b
	}
	if plan.Push {
		j.Channels = rt.NewPushChannels(job.Reducers, j.Opts.BackpressureBytes)
	}
	tasks, err := plan.Setup(j)
	if err != nil {
		return err
	}
	j.rebuild = tasks.Rebuild
	j.Reg.job = j
	rt.InstallFaults(j.Opts.Faults, j.Reg.FailNode)

	rt.sampler.Start()
	mapsWG := rt.RunMaps(&job, blocks, tasks.Map)
	redsWG := rt.RunReduces(&job, tasks.Reduce)
	rt.Env.Go("job-controller", func(p *sim.Proc) {
		mapsWG.Wait(p)
		// A recovery in flight may still re-push into the channels.
		j.Reg.WaitRecoveries(p)
		for _, pc := range j.Channels {
			pc.Close()
		}
		redsWG.Wait(p)
		j.OC.Materialize()
		rt.JobDone()
		rt.sampler.Stop() // at its next tick
		done(p, res)
	})
	return nil
}

// Run executes job on rt under plan, alone on rt's environment. A task
// that fails (Runtime.Fail, Abort) ends the run with its *TaskError.
func Run(rt *Runtime, job Job, opts Options, plan *Plan) (*Result, error) {
	var res *Result
	if err := Start(rt, job, opts, plan, func(_ *sim.Proc, r *Result) { res = r }); err != nil {
		return nil, err
	}
	if err := Drive(rt.Env); err != nil {
		err.(*TaskError).fill(rt.EngineLabel, job.Name)
		return nil, err
	}
	rt.FinishResult(res)
	return res, nil
}

// recoveryNode returns the live compute node a lost map task's recovery
// runs on: the live compute nodes in id order, picked by task id modulo
// their count, so the outputs one failure loses are regenerated across
// the survivors. Fault schedules that kill every compute node are rejected
// before a run starts (faults.Schedule.Validate), so finding none is a
// broken invariant.
func (rt *Runtime) recoveryNode(task int) *cluster.Node {
	var live []*cluster.Node
	for _, n := range rt.Cluster.ComputeNodes() {
		if !n.Failed() {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		panic("engine: no surviving compute node for recovery")
	}
	return live[task%len(live)]
}

// Recover regenerates the lost output out on a live compute node and sends
// each partition the rest past its frontier out.Held by the path its reader
// still uses: a push-only output re-pushes its chunks under their original
// (task, seq) identities, so no reducer receives a chunk twice; any other
// is rewritten as one scratch file of the rests, which its readers pull.
// The registry runs it once per loss (Registry.FailNode, Registry.Complete),
// and each attempt is spanned as map attempt n >= 1. If the recovery node
// dies mid-way, the next attempt resumes from the frontier the dead one
// advanced.
func (j *JobRun) Recover(p *sim.Proc, out *MapOutput) {
	rt := j.RT
	for attempt := 1; out.Lost; attempt++ {
		node := rt.recoveryNode(out.TaskID)
		span := rt.Begin(metrics.Span{Name: SpanMap, Node: node.ID, Task: out.TaskID, Attempt: attempt})
		chunks, charge := j.rebuild(p, node, j.blocks[out.TaskID])
		switch {
		case out.Store == nil:
			out.Lost = !j.repush(p, node, out, chunks, charge)
		case out.allHeld():
			// The last readers finished with partitions fetched before the
			// loss while this attempt rebuilt them: no one needs a file.
			out.Lost = false
		default:
			data, partLen := rests(chunks, out.Held)
			rt.WriteMapOutput(p, node, j.Job, out, data, partLen)
			out.Lost = node.Failed()
		}
		rt.End(span)
	}
	out.CompletedAt = p.Now()
	rt.Counters.Add(CtrTasksReexecuted, 1)
	rt.Emit(trace.Fault, "map-reexec", out.Node, out.TaskID, 0)
}

// repush pushes the chunks past out's frontier from node, advancing the
// frontier chunk by chunk, and reports whether all arrived: then the
// readers hold the whole output. false means node failed first.
func (j *JobRun) repush(p *sim.Proc, node *cluster.Node, out *MapOutput, chunks []kv.Chunk, charge func(i int)) bool {
	for i, c := range chunks {
		if c.Seq >= out.Held[c.Part] && !deliver(p, node, out.TaskID, i, c, charge, j.PushChunk, out.Held) {
			return false
		}
	}
	out.Node = node.ID
	for r := range out.Held {
		out.Held[r] = HeldAll
	}
	return true
}

// rests lays out, partition by partition, the bytes of the chunks past each
// partition's frontier held: what its reader still lacks.
func rests(chunks []kv.Chunk, held []int) (data []byte, partLen []int64) {
	parts := make([][]byte, len(held))
	for _, c := range chunks {
		if c.Seq >= held[c.Part] {
			parts[c.Part] = append(parts[c.Part], c.Data...)
		}
	}
	partLen = make([]int64, len(held))
	for r, b := range parts {
		partLen[r] = int64(len(b))
	}
	return slices.Concat(parts...), partLen
}

// CtrPushChunksLost counts push chunks that never left a failed node.
const CtrPushChunksLost = "push.chunks.lost"

// PushChunk delivers c from node to its reducer, holding it in memory and
// waiting while backpressure refuses the push. It returns false if node
// fails before delivery succeeds.
func (j *JobRun) PushChunk(p *sim.Proc, node *cluster.Node, task int, c kv.Chunk) bool {
	pc := j.Channels[c.Part]
	toNode := j.RT.ReducerNode(c.Part).ID
	for !pc.TryPush(p, node.ID, toNode, task, c.Seq, c.Data) {
		if node.Failed() {
			j.RT.Counters.Add(CtrPushChunksLost, 1)
			return false
		}
		// A space check can race with another mapper: block until it
		// really fits.
		pc.WaitSpace(p)
	}
	return true
}

// PushOutput is a push-only map task's delivery: it offers chunks — the
// task's whole output, in seal order — to their reducers, then registers
// the task with the frontier the pushes reached. Each chunk is billed by
// charge(i) on node just before push offers it. Once node has failed its
// NIC delivers nothing, so the rest are dropped unbilled and counted in
// push.chunks.lost; the output's recovery re-pushes them.
func (j *JobRun) PushOutput(p *sim.Proc, node *cluster.Node, task int,
	chunks []kv.Chunk, charge func(i int), push PushFunc) {
	out := &MapOutput{TaskID: task, Node: node.ID, Held: make([]int, j.Job.Reducers)}
	sealed := make([]int, j.Job.Reducers)
	for i, c := range chunks {
		sealed[c.Part] = c.Seq + 1
		if node.Failed() {
			j.RT.Counters.Add(CtrPushChunksLost, 1)
			continue
		}
		deliver(p, node, task, i, c, charge, push, out.Held)
	}
	for r, n := range sealed {
		if out.Held[r] == n {
			out.Held[r] = HeldAll
		}
	}
	j.Reg.Complete(out)
}

// PushFunc offers chunk c of map task task from node to its reducer and
// reports whether it arrived; false means node failed first. JobRun.PushChunk
// is one.
type PushFunc func(p *sim.Proc, node *cluster.Node, task int, c kv.Chunk) bool

// deliver is the one charge-then-push step of push-only delivery: it bills
// chunk i, offers it, and on arrival advances the frontier held past it.
func deliver(p *sim.Proc, node *cluster.Node, task, i int, c kv.Chunk,
	charge func(i int), push PushFunc, held []int) bool {
	charge(i)
	if !push(p, node, task, c) {
		return false
	}
	held[c.Part] = c.Seq + 1
	return true
}

// DecodePairs walks an encoded chunk and returns its pair count.
func DecodePairs(chunk []byte, f func(key, val []byte)) (n int) {
	d := kv.NewDecoder(chunk)
	for {
		k, v, ok := d.Next()
		if !ok {
			return n
		}
		n++
		f(k, v)
	}
}

// CountChunk pre-scans an encoded chunk for the pair count and payload bytes
// a fold's CPU charge needs, so the charge can overlap the pooled fold.
func CountChunk(chunk []byte) (n int, bytes int64) {
	d := kv.NewDecoder(chunk)
	for {
		k, v, ok := d.Next()
		if !ok {
			return
		}
		n++
		bytes += int64(len(k) + len(v))
	}
}
