package core

import (
	"fmt"

	"onepass/internal/cluster"
	"onepass/internal/engine"
	"onepass/internal/hashlib"
	"onepass/internal/memtable"
	"onepass/internal/metrics"
	"onepass/internal/sim"
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
const HashSeed = engine.PartitionSeed

// Plan returns the hash engine with reduce-side technique m: map tasks
// hash-combine, persist and push best-effort, reducers fold what arrives by
// either path, and a lost output is recomputed into the undelivered tails.
func Plan(m Mode) *engine.Plan {
	return &engine.Plan{
		Label: "hash-" + m.String(),
		Push:  true,
		Defaults: engine.Options{
			ChunkBytes:        512 << 10,
			BackpressureBytes: 8 << 20,
			SpillBuckets:      16,
			HotKeyCounters:    4096,
		},
		// The byte-array memory management library (§V) removes most of the
		// per-record object churn the JVM-based baselines pay; calibrated to
		// land the paper's "up to 48% of CPU cycles" saving.
		FrameworkNsPerRecord: HashFrameworkNsPerRecord,
		Setup: func(j *engine.JobRun) (engine.Tasks, error) {
			hj := &hashJob{JobRun: j, mode: m}
			// Chunk building is deterministic, so the recovered output serves
			// exactly the chunks that were never push-delivered.
			j.ReexecWith(hj.reexecMapOutput)
			return engine.Tasks{
				Map:    hj.runMapTask,
				Reduce: hj.runReduceTask,
			}, nil
		},
	}
}

// hashJob is one launched hash-engine job: the skeleton's state plus the
// technique.
type hashJob struct {
	*engine.JobRun
	mode Mode
}

// reduceCtx bundles what every reduce-side technique needs.
type reduceCtx struct {
	rt     *engine.Runtime
	job    *engine.Job
	costs  engine.CostModel
	node   *cluster.Node
	oc     *engine.OutputCollector
	r      int
	opts   *engine.Options
	fold   *engine.Fold // this task's own: its tables fold and finish through it
	budget int64
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
	// emit is emitFinal's output callback, bound to emitProc. A threshold
	// emit calls emitFinal once per answering key, nearly always from one
	// process (the pull path is the exception), so the closure is rebuilt
	// only when the calling process changes, not per key.
	emit     func(k, v []byte)
	emitProc *sim.Proc
}

func newReduceCtx(hj *hashJob, node *cluster.Node, r int) *reduceCtx {
	cache := map[int]*hashlib.Func{}
	return &reduceCtx{
		rt: hj.RT, job: hj.Job, costs: hj.Costs, node: node, oc: hj.OC, r: r, opts: &hj.Opts,
		fold: hj.Job.Fold(), budget: hj.RT.TaskMemory(hj.Job),
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
		e.st = newStateTable(rc.hashAt(l), e.arena, rc.fold)
		return e.st
	}
	e.st.restart()
	e.arena.Reset()
	return e.st
}

// join waits out any in-flight pooled fold. Both arrival paths (push and
// pull) call it on ingest entry, and every helper that suspends (chargeFold,
// emitFinal, spillSet.flushBucket) calls it before returning, so reducer
// state is never read or mutated while a fold is still on the pool, not
// even by a process that resumes mid-eviction while the other's fold runs.
// The wait is real-time only — it has no virtual effect, so the event
// schedule is identical with and without workers.
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
// (engine.CountChunk), needed because the charge is issued before the join.
func (rc *reduceCtx) foldChunk(p *sim.Proc, n int, bytes int64, fold func()) {
	rc.pending = p.StartWork(fold)
	rc.chargeFold(p, n, bytes)
}

// chargeFold accounts the CPU of folding n pairs totalling bytes through
// the hash table, then joins.
func (rc *reduceCtx) chargeFold(p *sim.Proc, n int, bytes int64) {
	rc.node.Compute(p, engine.Dur(float64(n), rc.costs.HashNs), engine.PhaseHash)
	rc.node.Compute(p, engine.Dur(float64(n), rc.costs.UpdateNsPerRecord)+
		engine.Dur(float64(bytes), rc.costs.SerializeNsPerByte), engine.PhaseUpdate)
	rc.node.Compute(p, engine.Dur(float64(n), rc.costs.FrameworkNsPerRecord), engine.PhaseFramework)
	rc.rt.Counters.Add(engine.CtrHashOps, float64(n))
	rc.join()
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

// finish emits key's answer from its state. A state that came back from a
// spill file damaged fails the reduce task (Runtime.Fail): engine tasks
// have no error return.
func (rc *reduceCtx) finish(p *sim.Proc, key, state []byte, emit engine.Emit) {
	if _, err := rc.fold.Finish(key, state, emit); err != nil {
		rc.rt.Fail(p, &engine.TaskError{Job: rc.job.Name, Kind: "reduce", Task: rc.r, Err: err})
	}
}

// finalize finishes every key of keys and emits the answers, charging each
// key's finalization CPU as emitFinal does, with the finishing done on the
// worker pool (engine.OutputCollector.Finalize).
func (rc *reduceCtx) finalize(p *sim.Proc, keys engine.KeyWalk) {
	rc.oc.Finalize(p, rc.r, rc.node.ID, rc.fold, keys,
		engine.KeyCost{PerKeyNs: rc.costs.ReduceNsPerRecord, PerStateByteNs: rc.costs.SerializeNsPerByte})
}

// emitFinal emits one key's result and charges finalization CPU on the
// event loop: a threshold emit, which answers mid-ingest.
func (rc *reduceCtx) emitFinal(p *sim.Proc, key, state []byte) {
	if rc.emitProc != p {
		rc.emitProc = p
		rc.emit = func(k, v []byte) { rc.oc.Emit(p, rc.r, rc.node.ID, k, v) }
	}
	rc.finish(p, key, state, rc.emit)
	rc.node.Compute(p, engine.Dur(1, rc.costs.ReduceNsPerRecord)+
		engine.Dur(float64(len(state)), rc.costs.SerializeNsPerByte), engine.PhaseReduce)
	rc.join()
}

func (hj *hashJob) runReduceTask(p *sim.Proc, node *cluster.Node, r int) {
	rt, reg, oc, pc := hj.RT, hj.Reg, hj.OC, hj.Channels[r]
	rc := newReduceCtx(hj, node, r)
	rc.mapProgress = func() float64 {
		return float64(reg.Completed()) / float64(reg.TotalMaps())
	}
	h := newHashReducer(rc, hj.mode)

	// Two arrival paths share the single-threaded reducer state: the push
	// channel, and a puller that fetches the partition tails the mappers
	// could not push (backpressure fallback) and recovered outputs.
	done := rt.NewWaitGroup(fmt.Sprintf("hash-red-%d", r), 2)
	shuffleSpan := rt.Begin(metrics.Span{Name: engine.SpanShuffle, Phase: true, Node: node.ID, Task: r})

	rt.Env.Go(fmt.Sprintf("hash-red-%d-pull", r), func(pp *sim.Proc) {
		reg.Pull(pp, node.ID, r, func(data []byte) {
			if len(data) > 0 {
				h.ingest(pp, data)
			}
		})
		done.Done()
	})

	for {
		chunk, ok := pc.Pop(p)
		if !ok {
			break
		}
		h.ingest(p, chunk.Data)
	}
	done.Done()
	done.Wait(p)
	rt.End(shuffleSpan)

	reduceSpan := rt.Begin(metrics.Span{Name: engine.SpanReduce, Phase: true, Node: node.ID, Task: r})
	h.finalize(p)
	oc.Close(p, r)
	rt.End(reduceSpan)
}
