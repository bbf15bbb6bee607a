package core

import (
	"fmt"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/faults"
	"onepass/internal/hadoop"
	"onepass/internal/hashlib"
	"onepass/internal/kv"
	"onepass/internal/memtable"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// Mode selects the reduce-side hash technique (§V's three options).
type Mode int

const (
	// HybridHash groups with classic Hybrid Hash: still blocking, I/O
	// comparable to sort-merge, but no sorting CPU.
	HybridHash Mode = iota
	// Incremental maintains a per-key state updated as data arrives; fully
	// pipelined answers when states fit in memory.
	Incremental
	// HotKey is Incremental plus a SpaceSaving sketch that keeps frequent
	// keys' states in memory and spills only cold data; supports early
	// approximate answers for the hot keys.
	HotKey
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case HybridHash:
		return "hybrid-hash"
	case Incremental:
		return "incremental"
	case HotKey:
		return "hot-key"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// HashFrameworkNsPerRecord is the hash engine's per-record runtime
// overhead: byte-array data structures avoid the allocation and GC churn
// behind the baselines' FrameworkNsPerRecord.
const HashFrameworkNsPerRecord = 2600

// HashSeed seeds the engine's hash family: function 0 is shared with the
// baselines for partitioning; functions 1.. serve grouping and each
// recursion level of external hashing.
const HashSeed = hadoop.PartitionSeed

// Options tunes the hash engine.
type Options struct {
	Mode Mode
	// Push enables eager push shuffle (default). Under backpressure the
	// engine falls back to pull from the persisted map output.
	DisablePush bool
	// ChunkBytes is the push granularity.
	ChunkBytes int64
	// BackpressureBytes bounds a reducer's inbound push queue.
	BackpressureBytes int64
	// SpillBuckets is the number of hash buckets used for spilled/cold
	// data (K in DESIGN.md).
	SpillBuckets int
	// HotKeyCounters sizes the SpaceSaving sketch (HotKey mode).
	HotKeyCounters int
	// ApproximateEarly, in HotKey mode, emits the in-memory hot-key states
	// as an approximate snapshot the moment all input has arrived, before
	// the exact completion pass (§V's early answers for hot keys).
	ApproximateEarly bool
	// Faults is the deterministic fault schedule to inject during the run.
	Faults faults.Schedule
}

func (o *Options) defaults() {
	if o.ChunkBytes == 0 {
		o.ChunkBytes = 512 << 10
	}
	if o.BackpressureBytes == 0 {
		o.BackpressureBytes = 8 << 20
	}
	if o.SpillBuckets == 0 {
		o.SpillBuckets = 16
	}
	if o.HotKeyCounters == 0 {
		o.HotKeyCounters = 4096
	}
}

// reducerImpl is one reduce-side hash technique.
type reducerImpl interface {
	// ingest folds one arriving chunk of encoded (key, value) pairs.
	ingest(p *sim.Proc, chunk []byte)
	// finalize emits all results after the last chunk.
	finalize(p *sim.Proc)
}

// Run executes job on rt with the hash-based engine.
func Run(rt *engine.Runtime, job engine.Job, opts Options) (*engine.Result, error) {
	var res *engine.Result
	if err := Start(rt, job, opts, func(_ *sim.Proc, r *engine.Result) { res = r }); err != nil {
		return nil, err
	}
	rt.Env.Run()
	rt.FinishResult(res)
	return res, nil
}

// Start launches job on rt without driving the simulation; see hadoop.Start
// for the contract. The controller invokes done at the job's completion
// instant, after JobDone and StopSampling.
func Start(rt *engine.Runtime, job engine.Job, opts Options, done func(p *sim.Proc, res *engine.Result)) error {
	if err := job.Validate(); err != nil {
		return err
	}
	blocks, err := rt.InputBlocks(job.InputPath)
	if err != nil {
		return err
	}
	if len(blocks) == 0 {
		return fmt.Errorf("%s: input %q has no blocks (was a chained stage's output discarded?)", "core", job.InputPath)
	}
	opts.defaults()
	if job.Speculation && !opts.DisablePush {
		return fmt.Errorf("core: speculative execution requires pull shuffle (DisablePush) — duplicate push attempts would double-deliver chunks")
	}
	// The byte-array memory management library (§V) removes most of the
	// per-record object churn the JVM-based baselines pay; calibrated to
	// land the paper's "up to 48% of CPU cycles" saving.
	if job.Costs.FrameworkNsPerRecord == 0 {
		job.Costs.FrameworkNsPerRecord = HashFrameworkNsPerRecord
	}
	costs := hadoop.JobCosts(&job)
	if costs.HashNs == 0 {
		costs.HashNs = engine.DefaultCosts().HashNs
	}
	if costs.UpdateNsPerRecord == 0 {
		costs.UpdateNsPerRecord = engine.DefaultCosts().UpdateNsPerRecord
	}
	res := &engine.Result{Job: job.Name, Engine: "hash-" + opts.Mode.String()}
	rt.EngineLabel = res.Engine
	oc := rt.NewOutputCollector(&job, res)
	reg := rt.NewRegistry(len(blocks))
	channels := rt.NewPushChannels(job.Reducers, opts.BackpressureBytes)
	partition := hadoop.Partitioner()
	agg, mapCombined := jobAggregator(&job)
	// Fault tolerance: a lost output is recomputed from its DFS block on a
	// surviving node; chunk building is deterministic, so the recovered
	// output serves exactly the chunks that were never push-delivered.
	blockByTask := make(map[int]*dfs.Block, len(blocks))
	for _, b := range blocks {
		blockByTask[b.Index] = b
	}
	reg.Reexec = func(p *sim.Proc, readerNode int, lost *engine.MapOutput) *engine.MapOutput {
		node := rt.Cluster.Node(readerNode)
		if node.Failed() {
			node = survivingNode(rt)
		}
		// Span the recovery attempt like a real map task (attempt 1) so the
		// profiler's span DAG stays connected through fault recovery.
		span := rt.Timeline.Begin(engine.SpanMap, p.Now())
		rt.Emit(trace.TaskStart, engine.SpanMap, node.ID, lost.TaskID, 1)
		out := reexecMapOutput(rt, p, node, &job, costs, blockByTask[lost.TaskID],
			partition, &opts, agg, mapCombined, lost)
		span.End(p.Now())
		rt.Emit(trace.TaskFinish, engine.SpanMap, node.ID, lost.TaskID, 1)
		return out
	}
	rt.InstallFaults(opts.Faults, reg.FailNode)

	rt.StartSampling()
	mapsWG := rt.RunMaps(&job, blocks, func(p *sim.Proc, node *cluster.Node, b *dfs.Block) {
		runMapTask(rt, p, node, &job, costs, b, partition, channels, reg, &opts, agg, mapCombined)
	})
	redsWG := rt.RunReduces(&job, func(p *sim.Proc, node *cluster.Node, r int) {
		runReduceTask(rt, p, node, &job, costs, channels[r], reg, oc, r, &opts, agg, mapCombined)
	})
	rt.Env.Go("job-controller", func(p *sim.Proc) {
		mapsWG.Wait(p)
		for _, pc := range channels {
			pc.Close()
		}
		redsWG.Wait(p)
		rt.JobDone()
		rt.StopSampling()
		done(p, res)
	})
	return nil
}

// reduceCtx bundles what every reduce-side technique needs.
type reduceCtx struct {
	rt      *engine.Runtime
	job     *engine.Job
	costs   engine.CostModel
	node    *cluster.Node
	oc      *engine.OutputCollector
	r       int
	opts    *Options
	agg     engine.Aggregator
	mapComb bool
	budget  int64
	// mapProgress reports the fraction of map tasks completed, for the
	// progress-vs-accuracy series; nil when no registry view is attached.
	mapProgress func() float64
	// hashAt returns the hash function for recursion level l (level 0 is
	// the in-memory grouping hash).
	hashAt func(l int) *hashlib.Func
	// external holds the external-hash pass's state tables, indexed by the
	// hash level they group on. The recursion is depth-first and a table is
	// drained before anything deeper starts, so one per level serves every
	// bucket of every spill set at that level.
	external []externalTable
	// pending is the in-flight pooled fold, if any. The push and pull
	// arrival paths share the single-threaded reducer state, so any access
	// to that state must join first.
	pending *sim.Work
	// emit is emitFinal's output callback, bound to emitProc. Finalization
	// calls emitFinal once per key, nearly always from one process (a
	// threshold emit on the pull path is the exception), so the closure is
	// rebuilt only when the calling process changes, not per key.
	emit     func(k, v []byte)
	emitProc *sim.Proc
}

func newReduceCtx(rt *engine.Runtime, job *engine.Job, costs engine.CostModel,
	node *cluster.Node, oc *engine.OutputCollector, r int, opts *Options,
	agg engine.Aggregator, mapCombined bool) *reduceCtx {
	cache := map[int]*hashlib.Func{}
	return &reduceCtx{
		rt: rt, job: job, costs: costs, node: node, oc: oc, r: r, opts: opts,
		agg: agg, mapComb: mapCombined, budget: rt.TaskMemory(job),
		hashAt: func(l int) *hashlib.Func {
			if f, ok := cache[l]; ok {
				return f
			}
			f := hashlib.Shared(HashSeed, l+1)
			cache[l] = f
			return f
		},
	}
}

// externalTable is one recursion level's state table and the arena its keys
// live in.
type externalTable struct {
	st    *stateTable
	arena *memtable.Arena
}

// externalTable returns the empty state table for hash level l: built on
// first use, restarted (tableSlots slots, recycled arena) afterwards.
func (rc *reduceCtx) externalTable(l int) *stateTable {
	for len(rc.external) <= l {
		rc.external = append(rc.external, externalTable{})
	}
	e := &rc.external[l]
	if e.st == nil {
		e.arena = memtable.NewArena(0)
		e.st = newStateTable(rc.hashAt(l), e.arena, rc.agg, rc.mapComb)
		return e.st
	}
	e.st.restart()
	e.arena.Reset()
	return e.st
}

// join waits out any in-flight pooled fold. Both arrival paths (push and
// pull) call it on ingest entry, and foldChunk calls it before returning,
// so reducer state is never read or mutated while a fold is still on the
// pool. The wait is real-time only — it has no virtual effect, so the
// event schedule is identical with and without workers.
func (rc *reduceCtx) join() {
	if rc.pending != nil {
		w := rc.pending
		rc.pending = nil
		w.Wait()
	}
}

// foldChunk applies one chunk's pure decode+fold closure and its CPU
// charge. The closure has no virtual effects, so it rides the worker pool
// and overlaps its own charge; with the pool disabled StartWork runs it
// inline and the virtual sequence — just the chargeFold — is unchanged.
// n and bytes are the chunk's pre-scanned pair count and payload size
// (countChunk), needed because the charge is issued before the join.
func (rc *reduceCtx) foldChunk(p *sim.Proc, n int, bytes int64, fold func()) {
	rc.pending = p.StartWork(fold)
	rc.chargeFold(p, n, bytes)
	rc.join()
}

// chargeFold accounts the CPU of folding n pairs totalling bytes through
// the hash table.
func (rc *reduceCtx) chargeFold(p *sim.Proc, n int, bytes int64) {
	rc.node.Compute(p, engine.Dur(float64(n), rc.costs.HashNs), engine.PhaseHash)
	rc.node.Compute(p, engine.Dur(float64(n), rc.costs.UpdateNsPerRecord)+
		engine.Dur(float64(bytes), rc.costs.SerializeNsPerByte), engine.PhaseUpdate)
	rc.node.Compute(p, engine.Dur(float64(n), rc.costs.FrameworkNsPerRecord), engine.PhaseFramework)
	rc.rt.Counters.Add(engine.CtrHashOps, float64(n))
}

// noteProgress records one progress-vs-accuracy point: current map progress,
// the cumulative pairs made available to the consumer, and the run's
// cumulative reduce-side spill volume.
func (rc *reduceCtx) noteProgress(p *sim.Proc, pairs int) {
	frac := -1.0
	if rc.mapProgress != nil {
		frac = rc.mapProgress()
	}
	rc.oc.NoteProgress(p.Now(), frac, pairs, int64(rc.rt.Counters.Get(engine.CtrReduceSpillBytes)))
}

// emitFinal emits one key's result and charges finalization CPU.
func (rc *reduceCtx) emitFinal(p *sim.Proc, key, state []byte) {
	if rc.emitProc != p {
		rc.emitProc = p
		rc.emit = func(k, v []byte) { rc.oc.Emit(p, rc.r, rc.node.ID, k, v) }
	}
	rc.agg.Final(key, state, rc.emit)
	rc.node.Compute(p, engine.Dur(1, rc.costs.ReduceNsPerRecord)+
		engine.Dur(float64(len(state)), rc.costs.SerializeNsPerByte), engine.PhaseReduce)
}

func runReduceTask(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job,
	costs engine.CostModel, pc *engine.PushChannel, reg *engine.Registry,
	oc *engine.OutputCollector, r int, opts *Options, agg engine.Aggregator, mapCombined bool) {

	rc := newReduceCtx(rt, job, costs, node, oc, r, opts, agg, mapCombined)
	rc.mapProgress = func() float64 {
		return float64(reg.Completed()) / float64(reg.TotalMaps())
	}
	var impl reducerImpl
	switch opts.Mode {
	case HybridHash:
		impl = newHybridReducer(rc)
	case Incremental:
		impl = newIncReducer(rc)
	case HotKey:
		impl = newHotReducer(rc)
	default:
		panic(fmt.Sprintf("core: unknown mode %v", opts.Mode))
	}

	// Two arrival paths share the single-threaded reducer state: the push
	// channel, and a puller that fetches partitions the mappers could not
	// push (backpressure fallback) or did not push (pull-only mode).
	done := rt.NewWaitGroup(fmt.Sprintf("hash-red-%d", r), 2)
	shuffleSpan := rt.Timeline.Begin(engine.SpanShuffle, p.Now())
	rt.Emit(trace.PhaseStart, engine.SpanShuffle, node.ID, r, 0)

	rt.Env.Go(fmt.Sprintf("hash-red-%d-pull", r), func(pp *sim.Proc) {
		seen := 0
		for {
			reg.WaitBeyond(pp, seen)
			for ; seen < reg.Completed(); seen++ {
				out := reg.Out(seen)
				if out.WasPushed(r) {
					continue
				}
				data := reg.FetchPart(pp, node.ID, out, r)
				if rt.Auditing() {
					rt.Audit.ShuffleIngested(node.ID, out.TaskID, r, -1, int64(len(data)))
				}
				if len(data) > 0 {
					impl.ingest(pp, data)
				}
				out.ConsumePart(r)
			}
			if reg.AllDone() {
				break
			}
		}
		done.Done()
	})

	for {
		chunk, ok := pc.Pop(p)
		if !ok {
			break
		}
		if rt.Auditing() {
			rt.Audit.ShuffleIngested(node.ID, chunk.MapTask, r, chunk.Seq, int64(len(chunk.Data)))
		}
		impl.ingest(p, chunk.Data)
	}
	done.Done()
	done.Wait(p)
	shuffleSpan.End(p.Now())
	rt.Emit(trace.PhaseEnd, engine.SpanShuffle, node.ID, r, 0)

	reduceSpan := rt.Timeline.Begin(engine.SpanReduce, p.Now())
	rt.Emit(trace.PhaseStart, engine.SpanReduce, node.ID, r, 0)
	impl.finalize(p)
	oc.Close(p, r)
	reduceSpan.End(p.Now())
	rt.Emit(trace.PhaseEnd, engine.SpanReduce, node.ID, r, 0)
}

// survivingNode returns the first compute node that has not failed.
func survivingNode(rt *engine.Runtime) *cluster.Node {
	for _, n := range rt.Cluster.ComputeNodes() {
		if !n.Failed() {
			return n
		}
	}
	panic("core: no surviving compute node for re-execution")
}

// decodePairs walks an encoded chunk.
func decodePairs(chunk []byte, f func(key, val []byte)) (n int) {
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

// countChunk pre-scans an encoded chunk for the pair count and payload
// bytes that chargeFold needs, so the charge can overlap the pooled fold.
func countChunk(chunk []byte) (n int, bytes int64) {
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
