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
// but without any disk staging: map output is folded in memory when the job
// declares a kv.Monoid (raw pairs otherwise), chunked, and pushed straight
// into the reducers' in-memory fold tables, which hold one engine.Fold
// element per key. Nothing is sorted and nothing is
// persisted; like M3R, the engine trades the fault-tolerance writes for
// speed and recovers from a lost node by re-running the deterministic map
// and re-pushing only the undelivered chunks under their original
// (task, seq) identities (engine.JobRun.Recover, as for HOP).
//
// The engine assumes the working set fits in cluster memory — M3R's stated
// contract — so reduce-side tables never spill.
package resident

import (
	"fmt"
	"slices"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/hashlib"
	"onepass/internal/kv"
	"onepass/internal/memtable"
	"onepass/internal/metrics"
	"onepass/internal/sim"
)

// FrameworkNsPerRecord is the resident engine's per-record runtime
// overhead: below even the hash engine's byte-array runtime because a
// resident job skips per-job JVM setup and re-reads nothing — M3R's
// "increased performance" came largely from eliminating exactly this
// bookkeeping between the jobs of a chain.
const FrameworkNsPerRecord = 900

// partSink is one reducer's in-memory output buffer, published to the DFS
// namespace after the reducer closes.
type partSink struct {
	node int
	data []byte
}

// Plan is the resident engine: map tasks fold and push from memory, reducers
// fold into resident tables and publish their output as memory-resident DFS
// files, and a lost output's undelivered chunks are re-pushed from a
// survivor, exactly as in the HOP engine.
var Plan = &engine.Plan{
	Label:                "resident",
	Push:                 true,
	Defaults:             engine.Options{ChunkBytes: 256 << 10, BackpressureBytes: 4 << 20},
	FrameworkNsPerRecord: FrameworkNsPerRecord,
	Setup: func(j *engine.JobRun) (engine.Tasks, error) {
		job := j.Job
		// Kept reduce output lands in per-partition memory buffers instead of
		// DFS writers; the collector keeps the checksum, serialize charges, and
		// retained output identical to the disk path. A sink keeps the
		// partition's bytes the collector encoded, uncopied: each commit is
		// the whole output so far. Discarded output lands nowhere: the
		// collector never opens a sink for it.
		sinks := make([]*partSink, job.Reducers)
		j.OC.NewSink = func(r, nodeID int) func(p *sim.Proc, data []byte) {
			s := &partSink{node: nodeID}
			sinks[r] = s
			return func(_ *sim.Proc, data []byte) { s.data = data }
		}
		return engine.Tasks{
			Map:    func(p *sim.Proc, node *cluster.Node, b *dfs.Block) { runMapTask(j, p, node, b) },
			Reduce: func(p *sim.Proc, node *cluster.Node, r int) { runReduceTask(j, p, node, r, sinks) },
			Rebuild: func(p *sim.Proc, node *cluster.Node, b *dfs.Block) ([]kv.Chunk, func(int)) {
				return buildChunks(j, p, node, b)
			},
		}, nil
	},
}

// buildChunks runs the map-side data path and returns the task's push
// chunks: sub-slices of one partition frame, into which the pairs are
// encoded once. A declared job's pairs fold into one insertion-ordered fold
// table as Map emits them, and the table drains straight into the frame;
// otherwise the raw pairs go to a map-output buffer and are packed in
// production order. Everything is deterministic in the block, so a recovery
// attempt regenerates byte-identical chunks under the same (partition, seq)
// identities: buildChunks is the engine's engine.Tasks.Rebuild, and enters
// the task in the combine ledger. The fold and packing are pure data work
// riding the map task's pooled closure, and the table dies with the task;
// the hash/update charges land here after the join, and charge(i) bills
// chunk i's serialization on node at its delivery point.
func buildChunks(j *engine.JobRun, p *sim.Proc, node *cluster.Node, b *dfs.Block) (chunks []kv.Chunk, charge func(i int)) {
	rt, job, costs := j.RT, j.Job, j.Costs
	R, chunkBytes := job.Reducers, j.Opts.ChunkBytes
	// Map-side folding — the resident analogue of the hash engines' map-side
	// combining, lit up for every workload that declares a monoid. One table
	// serves every partition: a key has one partition, kept as its table
	// value, and the frame regroups the drained pairs partition-major in
	// drain order, so each partition's pairs come out in the order its keys
	// first appeared. saved counts what the folds elided: the pair bytes
	// they took in, less the key and element bytes they added.
	var table *foldTable
	var saved int64
	var into func(wj *engine.Job) engine.MapSink
	if job.Monoid != nil {
		into = func(wj *engine.Job) engine.MapSink {
			table = newFoldTable(wj.Fold())
			return func(part int, key, val []byte) {
				saved += int64(len(key)+len(val)) - table.fold(key, val, part)
			}
		}
	}
	var finalPairBytes int64
	n, err := rt.ExecuteMapWith(p, node, job, b, j.Partition, into, func(_ *engine.Job, buf *kv.Buffer) {
		if table == nil {
			chunks = kv.PackPartitions(buf, R, chunkBytes).Chunks
			finalPairBytes = buf.Bytes()
		} else {
			fb := kv.NewFrameBuilder(R, chunkBytes)
			chunks = fb.Finish(table.drain).Chunks
			finalPairBytes = fb.PairBytes()
			// Chunks come back in the order a streaming chunker seals them,
			// and they are pushed in that order, which makes it part of the
			// virtual schedule. The order to keep is that of a fill that
			// goes partition by partition: every full chunk, partition-major,
			// then the partitions' unsealed tails. A fill in first-appearance
			// order seals the same chunks interleaved.
			rank := func(c kv.Chunk) int {
				if int64(len(c.Data)) < chunkBytes {
					return R + c.Part // a tail: sealed by the end of the fill
				}
				return c.Part
			}
			slices.SortStableFunc(chunks, func(a, b kv.Chunk) int { return rank(a) - rank(b) })
		}
	})
	if err != nil {
		rt.Fail(p, err)
	}
	if table != nil {
		node.Compute(p, engine.Dur(float64(n), costs.HashNs), engine.PhaseHash)
		node.Compute(p, engine.Dur(float64(n), costs.UpdateNsPerRecord), engine.PhaseCombine)
		rt.Counters.Add(engine.CtrHashOps, float64(n))
	}
	if rt.Auditing() {
		rt.Audit.MapFinalPairs(b.Index, finalPairBytes)
		// Zero for a job that did not fold: its raw pairs are its final ones.
		rt.Audit.CombineSaved(b.Index, saved)
	}
	return chunks, func(i int) {
		node.Compute(p, engine.Dur(float64(len(chunks[i].Data)), costs.SerializeNsPerByte), engine.PhaseMapFn)
	}
}

// runMapTask maps a block, folds its output in memory, and pushes the
// result as chunks, holding a chunk in memory while backpressure refuses it
// (no disk staging — the whole point of the engine).
func runMapTask(j *engine.JobRun, p *sim.Proc, node *cluster.Node, b *dfs.Block) {
	chunks, charge := buildChunks(j, p, node, b)
	j.PushOutput(p, node, b.Index, chunks, charge, j.PushChunk)
}

// foldTable is an insertion-ordered in-memory table of fold elements, one
// per key: a memtable.Table on its own arena, keys and elements both in it.
// On the map side a declared job's values combine in it, and since key order
// is first-appearance order in the block, rebuilding it on recovery
// reproduces chunk contents byte for byte. On the reduce side a declared
// job's incoming values are those map-side elements and combine again; an
// undeclared job's are raw and accumulate, framed, until Reduce runs over
// them at finalize. Either way it is the engine's entire reduce-side state:
// nothing spills.
type foldTable struct {
	agg *engine.Fold
	tbl *memtable.Table
}

// tableSlots is a fold table's initial slot count; it doubles from there.
const tableSlots = 64

func newFoldTable(agg *engine.Fold) *foldTable {
	// Grouping hashes with family member 1, as the hash engines do: member 0
	// partitioned the keys, so within a reducer it no longer spreads them.
	h := hashlib.Shared(engine.PartitionSeed, 1)
	return &foldTable{agg: agg, tbl: memtable.NewTable(h, memtable.NewArena(0), tableSlots)}
}

// fold folds one raw map value into key's element, remembering part as the
// key's table value when the key is new, and returns the bytes it added to
// the table: the key's when it is new, plus by how much the element grew.
// The element is the arena's copy: val may alias a chunk buffer that is
// recycled after the call.
func (t *foldTable) fold(key, val []byte, part int) (added int64) {
	e, isNew := t.tbl.Slot(key)
	if isNew {
		t.tbl.SetVal(e, uint64(part))
		added = int64(len(key))
	}
	return added + int64(t.agg.Into(t.tbl, e, isNew, val, false))
}

// drain hands add every key, its element and its partition, in insertion
// order.
func (t *foldTable) drain(add func(part int, key, elem []byte)) {
	t.tbl.InOrder(func(key, elem []byte, part uint64) bool {
		add(int(part), key, elem)
		return true
	})
}

// Walk makes the table an engine.KeyWalk in insertion order
// (memtable.Table.InOrderFrom).
func (t *foldTable) Walk(from int, visit func(key, state []byte) bool) int {
	return t.tbl.InOrderFrom(from, func(key, state []byte, _ uint64) bool { return visit(key, state) })
}

// emitAll finalizes the table in insertion order as reducer r on node,
// charging reduce CPU per key: per value Reduce folded for an undeclared
// job, per element and its bytes for a declared one. The finishing runs on
// the worker pool (engine.OutputCollector.Finalize), and a state that does
// not finish fails the task.
func (t *foldTable) emitAll(p *sim.Proc, oc *engine.OutputCollector, r int, node *cluster.Node, costs engine.CostModel) {
	cost := engine.KeyCost{PerValueNs: costs.ReduceNsPerRecord}
	if t.agg.Declared() {
		cost.PerStateByteNs = costs.SerializeNsPerByte
	}
	oc.Finalize(p, r, node.ID, t.agg, t, cost)
}

// chunkFold folds a reduce task's arriving chunks into its table. The
// decode+fold is pure data work: it rides the worker pool and overlaps the
// pre-counted CPU charge, exactly like the hash engines' reduce ingest. Its
// closure is built once per task and folds data, which is set before each
// dispatch and stays put until the join.
type chunkFold struct {
	data []byte
	run  func()
}

func newChunkFold(table *foldTable, r int) *chunkFold {
	in := &chunkFold{}
	add := func(k, v []byte) { table.fold(k, v, r) }
	in.run = func() { engine.DecodePairs(in.data, add) }
	return in
}

// ingest folds one chunk and charges it.
func (in *chunkFold) ingest(p *sim.Proc, rt *engine.Runtime, node *cluster.Node, costs engine.CostModel, data []byte) {
	n, bytes := engine.CountChunk(data)
	in.data = data
	work := p.StartWork(in.run)
	node.Compute(p, engine.Dur(float64(n), costs.HashNs), engine.PhaseHash)
	node.Compute(p, engine.Dur(float64(n), costs.UpdateNsPerRecord)+
		engine.Dur(float64(bytes), costs.SerializeNsPerByte), engine.PhaseUpdate)
	node.Compute(p, engine.Dur(float64(n), costs.FrameworkNsPerRecord), engine.PhaseFramework)
	rt.Counters.Add(engine.CtrHashOps, float64(n))
	work.Wait()
}

// runReduceTask drains the push channel into the fold table, then emits the
// table in insertion order and publishes the partition's output as a
// memory-resident DFS file for the next job in the chain to map over.
func runReduceTask(j *engine.JobRun, p *sim.Proc, node *cluster.Node, r int, sinks []*partSink) {
	rt, job, costs, oc, pc := j.RT, j.Job, j.Costs, j.OC, j.Channels[r]
	// The table folds and finishes inside pooled closures. Folding keeps no
	// scratch on the Fold, and a pooled finish goes through its worker's, so
	// the task's own serves the folds and an inline finish.
	table := newFoldTable(job.Fold())
	shuffleSpan := rt.Begin(metrics.Span{Name: engine.SpanShuffle, Phase: true, Node: node.ID, Task: r})
	in := newChunkFold(table, r)
	for {
		chunk, ok := pc.Pop(p)
		if !ok {
			break
		}
		in.ingest(p, rt, node, costs, chunk.Data)
	}
	rt.End(shuffleSpan)

	reduceSpan := rt.Begin(metrics.Span{Name: engine.SpanReduce, Phase: true, Node: node.ID, Task: r})
	table.emitAll(p, oc, r, node, costs)
	oc.Close(p, r)
	// Publish the partition into the DFS namespace as a memory-resident
	// block hosted here: a chained job's map tasks read it locally from
	// memory — the zero-disk hand-off the chained-iteration experiments
	// measure. Reducers that emitted nothing create no file, matching the
	// disk path's lazy writer creation.
	if s := sinks[r]; s != nil {
		path := fmt.Sprintf("%s/part-r-%05d", job.OutputPath, r)
		if err := rt.DFS.RegisterResident(path, s.node, s.data); err != nil {
			panic(fmt.Sprintf("resident: publishing %s: %v", path, err))
		}
	}
	rt.End(reduceSpan)
}
