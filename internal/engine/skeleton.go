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
	// bounded by Options.BackpressureBytes and closed once AfterMaps returns.
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
	// AfterMaps, when set, runs in the job controller between the map
	// barrier and the reduce barrier, with the push channels still open:
	// push-only engines re-push lost chunks (JobRun.RepushLost) here.
	AfterMaps func(p *sim.Proc)
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

	blocks map[int]*dfs.Block
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
// instant the job completes (after AfterMaps, JobDone and stopping the metrics sampler); the
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
		// block (replicas permitting), found again by task id.
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
	rt.InstallFaults(j.Opts.Faults, j.Reg.FailNode)

	rt.sampler.Start()
	mapsWG := rt.RunMaps(&job, blocks, tasks.Map)
	redsWG := rt.RunReduces(&job, tasks.Reduce)
	rt.Env.Go("job-controller", func(p *sim.Proc) {
		mapsWG.Wait(p)
		if tasks.AfterMaps != nil {
			tasks.AfterMaps(p)
		}
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

// SurvivingNode returns the first compute node that has not failed: where a
// lost map task is re-executed when no better-placed node is alive.
func (rt *Runtime) SurvivingNode() *cluster.Node {
	for _, n := range rt.Cluster.ComputeNodes() {
		if !n.Failed() {
			return n
		}
	}
	panic("engine: no surviving compute node for recovery")
}

// recoveryAttempt spans one re-execution of a lost map task like the real
// map task it is, so the profiler's span DAG stays connected through fault
// recovery and its critical path sees the re-executed work instead of an
// unexplained hole inside whoever asked for it.
func (rt *Runtime) recoveryAttempt(node *cluster.Node, task, attempt int, body func()) {
	span := rt.Begin(metrics.Span{Name: SpanMap, Node: node.ID, Task: task, Attempt: attempt})
	body()
	rt.End(span)
}

// ReexecWith installs the pull-shuffle recovery path: the first fetch of a
// lost output re-runs its map task through attempt — on the node that asked
// for it, or on a survivor when that node is itself dead — and serves the
// output attempt returns. lost carries what push already delivered, so
// attempt can regenerate only the rest.
func (j *JobRun) ReexecWith(attempt func(p *sim.Proc, node *cluster.Node, b *dfs.Block, lost *MapOutput) *MapOutput) {
	j.Reg.Reexec = func(p *sim.Proc, readerNode int, lost *MapOutput) (out *MapOutput) {
		node := j.RT.Cluster.Node(readerNode)
		if node.Failed() {
			node = j.RT.SurvivingNode()
		}
		j.RT.recoveryAttempt(node, lost.TaskID, 1, func() {
			out = attempt(p, node, j.blocks[lost.TaskID], lost)
		})
		return out
	}
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
// the task. Each chunk is billed by charge(i) on node just before push
// offers it. Once node has failed its NIC delivers nothing, so the rest are
// dropped unbilled and counted in push.chunks.lost; RepushLost re-pushes
// them from a survivor after the map wave.
func (j *JobRun) PushOutput(p *sim.Proc, node *cluster.Node, task int,
	chunks []kv.Chunk, charge func(i int), push PushFunc) {
	sealed := make([]int, j.Job.Reducers)
	delivered := make([]int, j.Job.Reducers)
	for i, c := range chunks {
		sealed[c.Part] = c.Seq + 1
		if node.Failed() {
			j.RT.Counters.Add(CtrPushChunksLost, 1)
			continue
		}
		deliver(p, node, task, i, c, charge, push, delivered)
	}
	j.CompletePushed(node, task, delivered, sealed)
}

// PushFunc offers chunk c of map task task from node to its reducer and
// reports whether it arrived; false means node failed first. JobRun.PushChunk
// is one.
type PushFunc func(p *sim.Proc, node *cluster.Node, task int, c kv.Chunk) bool

// deliver is the one charge-then-push step of push-only delivery: it bills
// chunk i, offers it, and on arrival advances delivered past it.
func deliver(p *sim.Proc, node *cluster.Node, task, i int, c kv.Chunk,
	charge func(i int), push PushFunc, delivered []int) bool {
	charge(i)
	if !push(p, node, task, c) {
		return false
	}
	delivered[c.Part] = c.Seq + 1
	return true
}

// CompletePushed registers a push-only map task. The data lives only in
// the push stream, so the output is no file, only the progress signal for
// snapshot fractions and the recovery bookkeeping: delivered[r] chunks of
// the sealed[r] the task produced for reducer r reached it.
func (j *JobRun) CompletePushed(node *cluster.Node, task int, delivered, sealed []int) {
	out := &MapOutput{TaskID: task, Node: node.ID, Pushed: make([]bool, len(sealed)), Delivered: delivered}
	for r := range out.Pushed {
		out.Pushed[r] = delivered[r] == sealed[r]
	}
	j.Reg.Complete(out)
}

// Regen re-runs block b's map for job j on node and returns, in the
// original seal order, the chunks at or past the delivery frontier
// already[part] — the chunks no reducer has — with their bill, charge(i)
// on node. Chunk building is deterministic in the block, so the chunks
// carry the lost attempt's bytes under its (task, seq) identities. Regen
// only reads already, and RepushLost advances it only after Regen returns.
type Regen func(j *JobRun, p *sim.Proc, node *cluster.Node, b *dfs.Block, already []int) (chunks []kv.Chunk, charge func(i int))

// RepushLost is a push-only engine's degraded-mode recovery, run after the
// map wave with the channels still open: every map output lost with its node
// before all its chunks were delivered is regenerated on a surviving node
// and only the undelivered chunks re-pushed, under their original
// identities, so no reducer receives a chunk twice. If the recovery node
// itself dies mid-way, the next survivor resumes from the advanced frontier.
func (j *JobRun) RepushLost(p *sim.Proc, regen Regen) {
	rt := j.RT
	for i := 0; i < j.Reg.Completed(); i++ {
		out := j.Reg.Out(i)
		if !out.Lost {
			continue
		}
		if !slices.Contains(out.Pushed, false) {
			// Everything was delivered before the node died; nothing
			// is left to recover.
			out.Lost = false
			continue
		}
		for attempt := 1; out.Lost; attempt++ {
			node := rt.SurvivingNode()
			rt.recoveryAttempt(node, out.TaskID, attempt, func() {
				chunks, charge := regen(j, p, node, j.blocks[out.TaskID], out.Delivered)
				for k, c := range chunks {
					if !deliver(p, node, out.TaskID, k, c, charge, j.PushChunk, out.Delivered) {
						return
					}
				}
				out.Node = node.ID
				out.Lost = false
			})
		}
		for r := range out.Pushed {
			out.Pushed[r] = true
		}
		rt.Counters.Add(CtrTasksReexecuted, 1)
		rt.Emit(trace.Fault, "map-repush", out.Node, out.TaskID, 0)
	}
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
