package core

import (
	"fmt"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/disk"
	"onepass/internal/engine"
	"onepass/internal/hashlib"
	"onepass/internal/kv"
	"onepass/internal/memtable"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// runMapTask is the hash engine's map side (§V's two options): (1) with no
// combiner, one scan partitions output with no grouping effort at all;
// (2) with a combiner, an in-memory hash table — one probe index per
// partition — performs partial aggregation on each pair as Map emits it
// (hybrid hash degrades to streaming flushes if the table outgrows the task
// budget), and the table drains straight into the partition frame: one copy
// from emit to frame.
// Either way there is no sort — that is the whole point. The task is billed
// stock Hadoop's synchronous map-output write, then pushes eagerly to the
// reducers. No copy of the output is kept: a partition leaves the task
// either pushed or staged as a leftover file, and a lost output is rebuilt
// from its DFS block (engine.JobRun.Recover).
func (hj *hashJob) runMapTask(p *sim.Proc, node *cluster.Node, b *dfs.Block) {
	rt, job, costs := hj.RT, hj.Job, hj.Costs
	frame := hj.buildMapChunks(p, node, b)
	R := job.Reducers
	// The synchronous write §III.B.2 measures, charged as one sequential
	// write of the whole frame. The pushed chunks and the leftover files
	// alias the frame: one copy of the output serves both.
	store := node.ScratchStore()
	outBytes := int64(len(frame.Data))
	store.Device().Write(p, outBytes, true)
	node.Compute(p, engine.Dur(float64(outBytes), costs.SerializeNsPerByte), engine.PhaseMapFn)
	rt.Counters.Add(engine.CtrMapWrittenBytes, float64(outBytes))
	if rt.Tracing() {
		rt.Emit(trace.OutputWrite, "map-output", node.ID, b.Index, 0,
			trace.Num("bytes", float64(outBytes)))
	}
	out := &engine.MapOutput{
		TaskID: b.Index, Node: node.ID, Store: store, PartLen: frame.PartLen,
		Leftover: make([]*disk.File, R), Held: make([]int, R),
	}
	// Completion is registered only after the push loop below resolves
	// which partitions were fully delivered, so pull-side reducers never
	// see a stale frontier.
	defer hj.Reg.Complete(out)

	// Eager push with a non-blocking fallback: the moment a reducer's queue
	// refuses a chunk, the rest of that partition — a contiguous tail of the
	// frame — is staged as a "leftover" file the reducer pulls later. The
	// mapper never stalls — unlike HOP's adaptive wait, the hash engine's
	// push is best-effort because the leftover file guarantees delivery.
	chunks, ends := chunksByPartition(frame.Chunks, R)
	var off int64
	for r := 0; r < R; r++ {
		toNode := rt.ReducerNode(r).ID
		partOff := off
		off += frame.PartLen[r]
		// The frontier gates what a recovery regenerates: a recovered
		// output serves only the tail past it.
		sent := int64(0)
		lo := 0
		if r > 0 {
			lo = ends[r-1]
		}
		part := chunks[lo:ends[r]]
		for _, c := range part {
			if !hj.Channels[r].TryPush(p, node.ID, toNode, b.Index, out.Held[r], c) {
				break
			}
			out.Held[r]++
			sent += int64(len(c))
		}
		if out.Held[r] == len(part) {
			out.Held[r] = engine.HeldAll
			continue
		}
		leftover := frame.Data[partOff+sent : off]
		lf := store.Create(fmt.Sprintf("%s/hashmap-%05d/leftover-%05d", job.Name, b.Index, r), false)
		store.Put(p, lf, leftover)
		rt.Counters.Add(engine.CtrMapSpillBytes, float64(len(leftover)))
		if rt.Auditing() {
			// The staged tail reaches its reducer through a pull fetch, so it
			// belongs in the shuffle ledger (as the partition's seq -1 unit),
			// not the spill ledger — the read-back happens remotely.
			rt.Audit.ShuffleProduced(node.ID, b.Index, r, -1, int64(len(leftover)))
		}
		if rt.Tracing() {
			rt.Emit(trace.Spill, "leftover", node.ID, b.Index, 0,
				trace.Num("bytes", float64(len(leftover))), trace.Num("reducer", float64(r)))
		}
		out.Leftover[r] = lf
	}
}

// chunksByPartition lists the chunks' data by partition, each partition's
// in sealing order: partition r's are flat[ends[r-1]:ends[r]] (from 0 for
// r = 0). One counting pass and one placement pass: two allocations, however
// many partitions there are.
func chunksByPartition(chunks []kv.Chunk, R int) (flat [][]byte, ends []int) {
	ends = make([]int, R)
	for _, c := range chunks {
		ends[c.Part]++
	}
	start := 0
	for r, n := range ends {
		ends[r], start = start, start+n
	}
	flat = make([][]byte, len(chunks))
	for _, c := range chunks {
		flat[ends[c.Part]] = c.Data
		ends[c.Part]++
	}
	return flat, ends
}

// buildMapChunks runs the map-side data path and returns the task's output
// as a packed partition frame. It is deterministic in the block and options,
// so a recovery attempt on another node reproduces the exact chunk
// boundaries and contents of the lost attempt: it is the engine's
// engine.Tasks.Rebuild.
func (hj *hashJob) buildMapChunks(p *sim.Proc, node *cluster.Node, b *dfs.Block) *kv.PartitionFrame {
	rt, job, costs := hj.RT, hj.Job, hj.Costs
	// Everything the chunk-building walk needs from the runtime is resolved
	// before dispatch: the walk itself (hash folds, flush sweeps, frame
	// packing) is pure data work, so it rides inside the map task's pooled
	// closure and overlaps the parse charge. The CPU charges and the
	// CombineFlush trace events land after the join.
	R, chunkBytes, grouping := job.Reducers, hj.Opts.ChunkBytes, rt.TaskMemory(job)
	// Option (2), a combiner: a declared job's pairs fold into the combine
	// table as Map emits them, and no buffer is filled. A free-monoid
	// element is no smaller than the values in it, so only a declared job
	// combines before the shuffle.
	var mc *mapCombiner
	var into func(wj *engine.Job) engine.MapSink
	if job.Monoid != nil {
		into = func(wj *engine.Job) engine.MapSink {
			mc = newMapCombiner(R, wj.Fold(), grouping, chunkBytes)
			return mc.add
		}
	}
	var frame *kv.PartitionFrame
	var rawBytes int64
	n, err := rt.ExecuteMapWith(p, node, job, b, hj.Partition, into, func(_ *engine.Job, buf *kv.Buffer) {
		if mc != nil {
			frame = mc.finish()
		} else {
			// Option (1), no combiner: the frame's single partitioning scan,
			// no grouping at all.
			frame = kv.PackPartitions(buf, R, chunkBytes)
			rawBytes = buf.Bytes()
		}
	})
	if err != nil {
		rt.Fail(p, err)
	}
	if mc != nil {
		node.Compute(p, engine.Dur(float64(n), costs.HashNs), engine.PhaseHash)
		node.Compute(p, engine.Dur(float64(n), costs.UpdateNsPerRecord), engine.PhaseCombine)
		rt.Counters.Add(engine.CtrHashOps, float64(n))
		if rt.Tracing() {
			for _, flushed := range mc.flushes {
				rt.Emit(trace.CombineFlush, "map-combine", node.ID, b.Index, 0,
					trace.Num("states", float64(flushed)))
			}
		}
		if rt.Auditing() {
			rt.Audit.MapFinalPairs(b.Index, mc.frame.PairBytes())
			rt.Audit.CombineSaved(b.Index, mc.saved)
		}
	} else if rt.Auditing() {
		rt.Audit.MapFinalPairs(b.Index, rawBytes)
	}
	return frame
}

// mapCombiner is map-side hash aggregation: a real hash table, real states,
// on one task-scoped arena. The table has one partition per reducer, each a
// probe index of its own over the shared entries, so every partition's slot
// order — and with it every chunk's bytes — is what a table of its own would
// give. Its add is the map task's sink, so each pair folds the moment Map
// emits it. Whenever the table outgrows the grouping budget it is drained
// into the frame builder's staging buffer and refilled — hybrid hash thus
// degrades to streaming flushes rather than failing when the block's key set
// does not fit — and at the end of the input finish drains it straight into
// the partition frame. Table, arena and builder belong to one map task and
// die with it.
type mapCombiner struct {
	table *stateTable
	// parts is how many partitions drain walks: the table's.
	parts    int
	arena    *memtable.Arena
	grouping int64
	frame    *kv.FrameBuilder
	pairs    int
	// flushes holds each drain's state count, the final drain's last.
	flushes []int
	// saved is what the folds elided: the pair bytes they took in, less
	// the key and element bytes they added to the tables.
	saved int64
}

func newMapCombiner(R int, fold *engine.Fold, grouping, chunkBytes int64) *mapCombiner {
	arena := memtable.NewArena(0)
	return &mapCombiner{
		table:    newPartitionedStateTable(hashAtShared(1), arena, fold, R),
		parts:    R,
		arena:    arena,
		grouping: grouping,
		frame:    kv.NewFrameBuilder(R, chunkBytes),
	}
}

// add folds one emitted pair into its partition, staging the table when it
// has outgrown the budget (checked every 1024 pairs).
func (mc *mapCombiner) add(part int, key, val []byte) {
	mc.saved += int64(len(key)+len(val)) - mc.table.foldIn(part, key, val, formIncoming)
	mc.pairs++
	if mc.pairs%1024 == 0 && mc.table.usedBytes() > mc.grouping {
		mc.flushes = append(mc.flushes, mc.table.len())
		mc.drain(mc.frame.Stage)
		mc.reset()
	}
}

// drain hands the table's (key, state) pairs to add, partition by
// partition, each in slot order.
func (mc *mapCombiner) drain(add func(part int, key, state []byte)) {
	for r := range mc.parts {
		mc.table.tbl.ElemsIn(r, func(k, s []byte) bool {
			add(r, k, s)
			return true
		})
	}
}

// reset empties the table and its arena for a refill.
func (mc *mapCombiner) reset() {
	mc.table.reset()
	mc.arena.Reset()
}

// finish lays out the task's frame: the staged pairs, then the table's
// final drain, written straight into the slab.
func (mc *mapCombiner) finish() *kv.PartitionFrame {
	mc.flushes = append(mc.flushes, mc.table.len())
	return mc.frame.Finish(mc.drain)
}

// hashAtShared returns hash family member i from hashlib's immutable
// process-wide cache; the family is deterministic, so every task sees the
// same function without rebuilding its tables.
func hashAtShared(i int) *hashlib.Func {
	return hashlib.Shared(HashSeed, i)
}
