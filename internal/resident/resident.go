// Package resident is the testbed's sixth engine: an M3R-style resident
// in-memory runtime (Shinnar et al., "M3R: Increased Performance for
// In-Memory Hadoop Jobs", VLDB 2012) layered over the same simulated
// substrate as the paper's five disk engines. Where the paper's engines pay
// the DFS on every hand-off, resident keeps reduce output alive in the
// reducer's memory and publishes it into the DFS namespace as
// memory-resident blocks (dfs.RegisterResident): iteration N+1 of a chained
// computation maps over iteration N's output with zero disk I/O, and —
// because reducer placement is partition-stable (engine.Runtime.ReducerNode)
// and map scheduling prefers local replicas — usually zero network too.
//
// The data path is push-only, modeled on the HOP engine's chunked shuffle
// but without any disk staging: map output is folded in memory (per-key
// aggregator states when the job declares a kv.Monoid or an explicit
// engine.Aggregator, raw pair lists otherwise), chunked, and pushed straight
// into the reducers' in-memory fold tables. Nothing is sorted and nothing is
// persisted; like M3R, the engine trades the fault-tolerance writes for
// speed and recovers from a lost node by re-running the deterministic map
// and re-pushing only the undelivered chunks under their original
// (task, seq) identities, exactly like the HOP recovery path.
//
// The engine assumes the working set fits in cluster memory — M3R's stated
// contract — so reduce-side tables never spill.
package resident

import (
	"fmt"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/faults"
	"onepass/internal/hadoop"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// FrameworkNsPerRecord is the resident engine's per-record runtime
// overhead: below even the hash engine's byte-array runtime because a
// resident job skips per-job JVM setup and re-reads nothing — M3R's
// "increased performance" came largely from eliminating exactly this
// bookkeeping between the jobs of a chain.
const FrameworkNsPerRecord = 900

// Options tunes the engine.
type Options struct {
	// ChunkBytes is the push granularity: folded map output is serialized
	// and pushed in chunks of this size.
	ChunkBytes int64
	// BackpressureBytes bounds a reducer's inbound queue; a mapper whose
	// push is refused holds the chunk in memory and waits (no disk staging —
	// the resident engine never touches scratch disks for data).
	BackpressureBytes int64
	// Faults is the deterministic fault schedule to inject during the run.
	Faults faults.Schedule
}

func (o *Options) defaults() {
	if o.ChunkBytes == 0 {
		o.ChunkBytes = 256 << 10
	}
	if o.BackpressureBytes == 0 {
		o.BackpressureBytes = 4 << 20
	}
}

// Run executes job on rt with the resident in-memory engine.
func Run(rt *engine.Runtime, job engine.Job, opts Options) (*engine.Result, error) {
	var res *engine.Result
	if err := Start(rt, job, opts, func(_ *sim.Proc, r *engine.Result) { res = r }); err != nil {
		return nil, err
	}
	rt.Env.Run()
	rt.FinishResult(res)
	return res, nil
}

// partSink is one reducer's in-memory output buffer, published to the DFS
// namespace after the reducer closes.
type partSink struct {
	node int
	data []byte
}

// Start launches job on rt without driving the simulation; see hadoop.Start
// for the contract. The controller invokes done at the job's completion
// instant, after lost-chunk recovery, JobDone, and StopSampling.
func Start(rt *engine.Runtime, job engine.Job, opts Options, done func(p *sim.Proc, res *engine.Result)) error {
	if err := job.Validate(); err != nil {
		return err
	}
	if job.Reduce == nil {
		return fmt.Errorf("resident: job %q has no reduce function", job.Name)
	}
	blocks, err := rt.InputBlocks(job.InputPath)
	if err != nil {
		return err
	}
	if len(blocks) == 0 {
		return fmt.Errorf("%s: input %q has no blocks (was a chained stage's output discarded?)", "resident", job.InputPath)
	}
	opts.defaults()
	if job.Costs.FrameworkNsPerRecord == 0 {
		job.Costs.FrameworkNsPerRecord = FrameworkNsPerRecord
	}
	costs := hadoop.JobCosts(&job)
	if costs.HashNs == 0 {
		costs.HashNs = engine.DefaultCosts().HashNs
	}
	if costs.UpdateNsPerRecord == 0 {
		costs.UpdateNsPerRecord = engine.DefaultCosts().UpdateNsPerRecord
	}
	res := &engine.Result{Job: job.Name, Engine: "resident"}
	rt.EngineLabel = "resident"
	oc := rt.NewOutputCollector(&job, res)
	// Reduce output lands in per-partition memory buffers instead of DFS
	// writers; the collector keeps the checksum, serialize charges, and
	// retained output identical to the disk path.
	sinks := make([]*partSink, job.Reducers)
	oc.NewSink = func(r, nodeID int) func(p *sim.Proc, data []byte) {
		s := &partSink{node: nodeID}
		sinks[r] = s
		if job.DiscardOutput {
			return func(*sim.Proc, []byte) {}
		}
		return func(_ *sim.Proc, data []byte) { s.data = append(s.data, data...) }
	}
	reg := rt.NewRegistry(len(blocks)) // progress signal + recovery bookkeeping
	channels := rt.NewPushChannels(job.Reducers, opts.BackpressureBytes)
	partition := hadoop.Partitioner()
	blockByTask := make(map[int]*dfs.Block, len(blocks))
	for _, b := range blocks {
		blockByTask[b.Index] = b
	}
	rt.InstallFaults(opts.Faults, reg.FailNode)

	rt.StartSampling()
	mapsWG := rt.RunMaps(&job, blocks, func(p *sim.Proc, node *cluster.Node, b *dfs.Block) {
		runMapTask(rt, p, node, &job, costs, b, partition, channels, &opts, reg)
	})
	redsWG := rt.RunReduces(&job, func(p *sim.Proc, node *cluster.Node, r int) {
		runReduceTask(rt, p, node, &job, costs, channels[r], oc, r, sinks)
	})
	rt.Env.Go("job-controller", func(p *sim.Proc) {
		mapsWG.Wait(p)
		// Degraded-mode recovery, exactly as in the HOP engine: a failed
		// node's undelivered chunks are regenerated by re-executing the map
		// on a surviving node and re-pushed under their original (task, seq)
		// identities; reducers suppress any duplicates.
		for i := 0; i < reg.Completed(); i++ {
			out := reg.Out(i)
			if !out.Lost {
				continue
			}
			fully := true
			for _, done := range out.Pushed {
				fully = fully && done
			}
			if fully {
				out.Lost = false
				continue
			}
			recoverMapTask(rt, p, &job, costs, blockByTask[out.TaskID], partition, channels, &opts, out)
			rt.Counters.Add(engine.CtrTasksReexecuted, 1)
			rt.Emit(trace.Fault, "map-repush", out.Node, out.TaskID, 0)
		}
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

// jobAggregator picks the map/reduce-side aggregation for a job: an explicit
// engine.Aggregator when declared, the monoid-derived one when the job
// declares a kv.Monoid, and nil (raw value lists, Reduce at finalize) for
// holistic workloads — the same selection the hash engines make.
func jobAggregator(job *engine.Job) engine.Aggregator {
	if job.Agg != nil {
		return job.Agg
	}
	if job.Monoid != nil {
		return engine.MonoidAgg{M: job.Monoid}
	}
	return nil
}

// buildChunks runs the map-side data path: with an aggregator, records are
// folded into per-partition insertion-ordered state tables and the tables'
// (key, state) pairs are chunked; without one, raw pairs are chunked in
// production order. Either way the pairs are packed once into a partition
// frame whose chunks — sub-slices, in seal order — are the push units.
// Everything is deterministic in the block, so a recovery attempt
// regenerates byte-identical chunks under the same (partition, seq)
// identities. The fold and packing are pure data work riding the map task's
// pooled closure; the hash/update charges land here after the join, and the
// caller charges serialization at each chunk's delivery point.
func buildChunks(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job,
	costs engine.CostModel, b *dfs.Block, partition engine.Partitioner,
	opts *Options) (chunks []kv.Chunk, rawBytes, finalPairBytes int64, folded bool) {

	tj := rt.TaskJob(job)
	tAgg := jobAggregator(tj)
	R := job.Reducers
	var n int
	buf, err := rt.ExecuteMapWith(p, node, tj, b, partition, func(buf *kv.Buffer) {
		out := buf
		if tAgg != nil {
			// Map-side folding: per-partition insertion-ordered hash tables
			// of aggregator states — the resident analogue of the hash
			// engines' map-side combining, lit up for every workload that
			// declares a monoid or aggregator.
			tables := make([]*mapTable, R)
			for r := range tables {
				tables[r] = newMapTable(tAgg)
			}
			n = buf.Len()
			for i := 0; i < n; i++ {
				tables[buf.Partition(i)].fold(buf.Key(i), buf.Val(i))
			}
			out = kv.NewBuffer(0)
			for r, tb := range tables {
				for i, k := range tb.keys {
					out.Add(r, k, tb.states[i])
				}
			}
		}
		finalPairBytes = out.Bytes()
		chunks = kv.PackPartitions(out, R, opts.ChunkBytes).Chunks
	})
	if err != nil {
		panic(fmt.Sprintf("resident: %v", err))
	}
	if tAgg != nil {
		node.Compute(p, engine.Dur(float64(n), costs.HashNs), engine.PhaseHash)
		node.Compute(p, engine.Dur(float64(n), costs.UpdateNsPerRecord), engine.PhaseCombine)
		rt.Counters.Add(engine.CtrHashOps, float64(n))
	}
	rawBytes = buf.Bytes()
	rt.ReleaseBuffer(buf) // the frame is an encoded copy
	return chunks, rawBytes, finalPairBytes, tAgg != nil
}

// mapTable is the map side's insertion-ordered fold table: key order is the
// first-appearance order of keys in the block, so rebuilding the table on
// recovery reproduces chunk contents byte for byte.
type mapTable struct {
	agg    engine.Aggregator
	idx    map[string]int
	keys   [][]byte
	states [][]byte
}

func newMapTable(agg engine.Aggregator) *mapTable {
	return &mapTable{agg: agg, idx: make(map[string]int)}
}

func (t *mapTable) fold(key, val []byte) {
	if i, ok := t.idx[string(key)]; ok {
		t.states[i] = t.agg.Update(t.states[i], val)
		return
	}
	t.idx[string(key)] = len(t.keys)
	t.keys = append(t.keys, key)
	t.states = append(t.states, t.agg.Init(val))
}

// pushChunk delivers one chunk, holding it in memory and waiting when
// backpressure refuses the push (no disk staging — the whole point of the
// engine). It returns false if the node fails before delivery succeeds.
func pushChunk(rt *engine.Runtime, p *sim.Proc, node *cluster.Node,
	channels []*engine.PushChannel, c kv.Chunk, taskID int) bool {

	toNode := rt.ReducerNode(c.Part).ID
	for !channels[c.Part].TryPush(p, node.ID, toNode, taskID, c.Seq, c.Data) {
		if node.Failed() {
			rt.Counters.Add("push.chunks.lost", 1)
			return false
		}
		channels[c.Part].WaitSpace(p)
	}
	return true
}

// runMapTask maps a block, folds its output in memory, and pushes the
// result as chunks.
func runMapTask(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job,
	costs engine.CostModel, b *dfs.Block, partition engine.Partitioner,
	channels []*engine.PushChannel, opts *Options, reg *engine.Registry) {

	chunks, rawBytes, finalPairBytes, folded := buildChunks(rt, p, node, job, costs, b, partition, opts)
	if rt.Auditing() {
		rt.Audit.MapFinalPairs(b.Index, finalPairBytes)
		if folded {
			rt.Audit.CombineSaved(b.Index, rawBytes-finalPairBytes)
		}
	}
	sealed := make([]int, job.Reducers)
	delivered := make([]int, job.Reducers)
	for _, c := range chunks {
		sealed[c.Part] = c.Seq + 1
		if node.Failed() {
			// Dead NIC: the chunk cannot leave the machine. The recovery
			// pass re-pushes it from a surviving node after the map wave.
			rt.Counters.Add("push.chunks.lost", 1)
			continue
		}
		node.Compute(p, engine.Dur(float64(len(c.Data)), costs.SerializeNsPerByte), engine.PhaseMapFn)
		if pushChunk(rt, p, node, channels, c, b.Index) {
			delivered[c.Part] = c.Seq + 1
		}
	}
	// Register completion (progress signal plus recovery bookkeeping); the
	// data itself lives only in the push stream, so the output carries no
	// bytes — just the zero-size progress marker.
	out := engine.NewMapOutput(p, node.ScratchStore(),
		fmt.Sprintf("%s/res-map-%05d/progress", job.Name, b.Index),
		b.Index, node.ID, nil, make([]int64, job.Reducers))
	out.Delivered = delivered
	for r := range out.Pushed {
		out.Pushed[r] = delivered[r] == sealed[r]
	}
	reg.Complete(out)
}

// recoverMapTask re-executes a lost map task on a surviving node and pushes
// the chunks the dead node never delivered, under their original
// (task, seq) identities. If the recovery node itself dies mid-way, the
// loop moves to the next survivor, resuming from the updated delivery
// counts.
func recoverMapTask(rt *engine.Runtime, p *sim.Proc, job *engine.Job, costs engine.CostModel,
	b *dfs.Block, partition engine.Partitioner, channels []*engine.PushChannel,
	opts *Options, out *engine.MapOutput) {

	for attempt := 1; ; attempt++ {
		node := survivingNode(rt)
		// Span the recovery attempt like a real map task so the profiler's
		// span DAG stays connected through fault recovery.
		span := rt.Timeline.Begin(engine.SpanMap, p.Now())
		rt.Emit(trace.TaskStart, engine.SpanMap, node.ID, out.TaskID, attempt)
		chunks, _, _, _ := buildChunks(rt, p, node, job, costs, b, partition, opts)
		failedMid := false
		for _, c := range chunks {
			if c.Seq < out.Delivered[c.Part] {
				continue
			}
			node.Compute(p, engine.Dur(float64(len(c.Data)), costs.SerializeNsPerByte), engine.PhaseMapFn)
			if !pushChunk(rt, p, node, channels, c, out.TaskID) {
				failedMid = true
				break
			}
			out.Delivered[c.Part] = c.Seq + 1
		}
		span.End(p.Now())
		rt.Emit(trace.TaskFinish, engine.SpanMap, node.ID, out.TaskID, attempt)
		if !failedMid {
			for r := range out.Pushed {
				out.Pushed[r] = true
			}
			out.Node = node.ID
			out.Lost = false
			return
		}
	}
}

// survivingNode returns the first compute node that has not failed.
func survivingNode(rt *engine.Runtime) *cluster.Node {
	for _, n := range rt.Cluster.ComputeNodes() {
		if !n.Failed() {
			return n
		}
	}
	panic("resident: no surviving compute node for recovery")
}

// foldTable is a reducer's insertion-ordered in-memory table. With an
// aggregator, incoming values are map-side states merged via Merge; without
// one, raw values accumulate per key and Reduce runs at finalize. Either
// way the table is the engine's entire reduce-side state: nothing spills.
type foldTable struct {
	agg    engine.Aggregator
	idx    map[string]int
	keys   []string
	states [][]byte
	lists  [][][]byte
	vals   int
}

func newFoldTable(agg engine.Aggregator) *foldTable {
	return &foldTable{agg: agg, idx: make(map[string]int)}
}

func (t *foldTable) fold(key, val []byte) {
	t.vals++
	i, ok := t.idx[string(key)]
	if !ok {
		i = len(t.keys)
		t.idx[string(key)] = i
		t.keys = append(t.keys, string(key))
		if t.agg != nil {
			// Copy: Merge may grow the stored state in place, and an aliased
			// chunk buffer could carry a neighboring pair's bytes in its
			// spare capacity.
			t.states = append(t.states, append([]byte(nil), val...))
		} else {
			t.lists = append(t.lists, [][]byte{val})
		}
		return
	}
	if t.agg != nil {
		t.states[i] = t.agg.Merge(t.states[i], val)
	} else {
		t.lists[i] = append(t.lists[i], val)
	}
}

// emitAll finalizes the table in insertion order — Final per state, or reduce
// per value list when there is no aggregator — charging reduce CPU per key.
// Keys pass through one scratch buffer: like every engine's, a key is only
// the callee's for the duration of the call.
func (t *foldTable) emitAll(p *sim.Proc, node *cluster.Node, costs engine.CostModel,
	reduce engine.ReduceFunc, emit engine.Emit) {
	var key []byte
	for i, k := range t.keys {
		key = append(key[:0], k...)
		if t.agg != nil {
			state := t.states[i]
			t.agg.Final(key, state, emit)
			node.Compute(p, engine.Dur(1, costs.ReduceNsPerRecord)+
				engine.Dur(float64(len(state)), costs.SerializeNsPerByte), engine.PhaseReduce)
		} else {
			vals := t.lists[i]
			reduce(key, vals, emit)
			node.Compute(p, engine.Dur(float64(len(vals)), costs.ReduceNsPerRecord), engine.PhaseReduce)
		}
	}
}

// runReduceTask drains the push channel into the fold table, then emits the
// table in insertion order and publishes the partition's output as a
// memory-resident DFS file for the next job in the chain to map over.
func runReduceTask(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job,
	costs engine.CostModel, pc *engine.PushChannel, oc *engine.OutputCollector,
	r int, sinks []*partSink) {

	tj := rt.TaskJob(job)
	table := newFoldTable(jobAggregator(tj))
	// seen dedups inbound chunks by (map task, seq): recovery re-pushes and
	// speculative attempts may both re-deliver a chunk, and the map data
	// path is deterministic, so a repeated identity carries identical
	// content.
	seen := make(map[[2]int]struct{})

	shuffleSpan := rt.Timeline.Begin(engine.SpanShuffle, p.Now())
	rt.Emit(trace.PhaseStart, engine.SpanShuffle, node.ID, r, 0)
	for {
		chunk, ok := pc.Pop(p)
		if !ok {
			break
		}
		id := [2]int{chunk.MapTask, chunk.Seq}
		if _, dup := seen[id]; dup {
			rt.Counters.Add(engine.CtrShuffleDupChunks, 1)
			continue
		}
		seen[id] = struct{}{}
		if rt.Auditing() {
			rt.Audit.ShuffleIngested(node.ID, chunk.MapTask, r, chunk.Seq, int64(len(chunk.Data)))
		}
		// The decode+fold is pure data work: dispatch it to the worker pool
		// and overlap the pre-counted CPU charge, exactly like the hash
		// engines' reduce ingest.
		n, bytes := countChunk(chunk.Data)
		data := chunk.Data
		work := p.StartWork(func() { decodePairs(data, table.fold) })
		node.Compute(p, engine.Dur(float64(n), costs.HashNs), engine.PhaseHash)
		node.Compute(p, engine.Dur(float64(n), costs.UpdateNsPerRecord)+
			engine.Dur(float64(bytes), costs.SerializeNsPerByte), engine.PhaseUpdate)
		node.Compute(p, engine.Dur(float64(n), costs.FrameworkNsPerRecord), engine.PhaseFramework)
		rt.Counters.Add(engine.CtrHashOps, float64(n))
		work.Wait()
	}
	shuffleSpan.End(p.Now())
	rt.Emit(trace.PhaseEnd, engine.SpanShuffle, node.ID, r, 0)

	reduceSpan := rt.Timeline.Begin(engine.SpanReduce, p.Now())
	rt.Emit(trace.PhaseStart, engine.SpanReduce, node.ID, r, 0)
	table.emitAll(p, node, costs, tj.Reduce, func(k, v []byte) { oc.Emit(p, r, node.ID, k, v) })
	oc.Close(p, r)
	// Publish the partition into the DFS namespace as a memory-resident
	// block hosted here: a chained job's map tasks read it locally from
	// memory — the zero-disk hand-off the chained-iteration experiments
	// measure. Reducers that emitted nothing create no file, matching the
	// disk path's lazy writer creation.
	if s := sinks[r]; s != nil && !job.DiscardOutput {
		path := fmt.Sprintf("%s/part-r-%05d", job.OutputPath, r)
		if err := rt.DFS.RegisterResident(path, s.node, s.data); err != nil {
			panic(fmt.Sprintf("resident: publishing %s: %v", path, err))
		}
	}
	reduceSpan.End(p.Now())
	rt.Emit(trace.PhaseEnd, engine.SpanReduce, node.ID, r, 0)
}

// decodePairs walks an encoded chunk.
func decodePairs(chunk []byte, f func(key, val []byte)) {
	d := kv.NewDecoder(chunk)
	for {
		k, v, ok := d.Next()
		if !ok {
			return
		}
		f(k, v)
	}
}

// countChunk pre-scans an encoded chunk for the pair count and payload
// bytes the ingest charge needs, so the charge can overlap the pooled fold.
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
