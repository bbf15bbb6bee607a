// Package hop reproduces MapReduce Online (the Hadoop Online Prototype,
// Condie et al., NSDI'10) as the paper's §III.D characterizes it: a fork of
// Hadoop that pipelines map output to reducers eagerly in small sorted
// chunks with adaptive backpressure (mappers stage chunks to local disk and
// wait when reducers fall behind), and that emits periodic snapshot answers
// at input fractions (25%, 50%, 75%) by repeating the merge over the data
// received so far. The group-by core is still sort-merge — pipelining
// redistributes the sorting/merging work between mappers and reducers but
// does not remove the blocking multi-pass merge, which is the paper's
// central observation about this system.
package hop

import (
	"fmt"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/hadoop"
	"onepass/internal/kv"
	"onepass/internal/metrics"
	"onepass/internal/sim"
	"onepass/internal/sortmerge"
	"onepass/internal/trace"
)

// snapshotFractions are the input fractions at which reducers emit snapshot
// answers: the classic 25/50/75%.
var snapshotFractions = []float64{0.25, 0.5, 0.75}

// Plan is the MapReduce Online engine: map tasks push sorted chunks (staging
// to disk under backpressure), reducers merge them like stock Hadoop between
// snapshots, and a lost node's undelivered chunks are re-pushed after the
// map wave.
var Plan = &engine.Plan{
	Label: "hop",
	Push:  true,
	Defaults: engine.Options{
		FanIn:             sortmerge.DefaultFanIn,
		ChunkBytes:        256 << 10,
		BackpressureBytes: 4 << 20,
	},
	Setup: func(j *engine.JobRun) (engine.Tasks, error) {
		push := stashPush(j)
		return engine.Tasks{
			Map:       func(p *sim.Proc, node *cluster.Node, b *dfs.Block) { runMapTask(j, p, node, b, push) },
			Reduce:    func(p *sim.Proc, node *cluster.Node, r int) { runReduceTask(j, p, node, r) },
			AfterMaps: func(p *sim.Proc) { j.RepushLost(p, buildChunks) },
		}, nil
	},
}

// mapChunks walks the mapped buffer in production order, accumulating a
// per-reducer chunk and handing each sealed chunk to deliver with its
// sequence number. Chunk boundaries depend only on the buffer and
// chunkBytes, so a recovery attempt over the same block regenerates
// byte-identical chunks under the same (task, seq) identities.
func mapChunks(buf *kv.Buffer, reducers int, chunkBytes int64, deliver func(r, seq int, idxs []int)) {
	// Every chunk's index list is cut from one slab: a counting pass gives
	// partition r the region slab[open[r]:…], which its chunks divide in
	// order, each one open[r]:end[r] while it fills.
	n := buf.Len()
	open := make([]int, reducers)
	end := make([]int, reducers)
	for i := 0; i < n; i++ {
		end[buf.Partition(i)]++
	}
	off := 0
	for r, count := range end {
		open[r], end[r] = off, off
		off += count
	}
	slab := make([]int, n)
	bytesByPart := make([]int64, reducers)
	seqByPart := make([]int, reducers)
	seal := func(r int) {
		if open[r] == end[r] {
			return
		}
		deliver(r, seqByPart[r], slab[open[r]:end[r]:end[r]])
		seqByPart[r]++
		open[r] = end[r]
		bytesByPart[r] = 0
	}
	for i := 0; i < n; i++ {
		r := buf.Partition(i)
		slab[end[r]] = i
		end[r]++
		bytesByPart[r] += int64(len(buf.Key(i)) + len(buf.Val(i)))
		if bytesByPart[r] >= chunkBytes {
			seal(r)
		}
	}
	for r := 0; r < reducers; r++ {
		seal(r)
	}
}

// encodedChunk is one sealed, key-sorted, serialized chunk awaiting
// delivery to its reducer.
type encodedChunk struct {
	kv.Chunk
	cmps int64
	// pairBytes is the chunk's key+val byte volume as sealed (equal to the
	// raw volume without a combiner), and saved the pair bytes its combine
	// step elided, counted group by group — the two map-side terms of the
	// combine-conservation ledger. combineInputs counts values the combiner
	// folded.
	pairBytes, saved int64
	combineInputs    int
}

// sortEncodeChunk sorts one chunk by key, applies the task's combiner to
// each key group when one is set (HOP's chunk-granular in-node combining —
// the monoid path lights this up for every declared workload), and
// serializes the result — pure data work with no virtual effects, safe
// inside a pooled map closure. The caller charges the counted comparisons,
// combine inputs, and serialize bytes at the delivery point via chargeChunk.
func sortEncodeChunk(buf *kv.Buffer, idxs []int, combine engine.ReduceFunc) (c encodedChunk) {
	buf.SortIndices(idxs, &c.cmps)
	// The chunk is made at its encoded size: exact without a combiner, and
	// with one the raw size, which combining only shrinks.
	size := 0
	for _, i := range idxs {
		size += kv.EncodedSize(buf.Key(i), buf.Val(i))
	}
	c.Data = make([]byte, 0, size)
	emit := func(k, v []byte) {
		c.Data = kv.AppendPair(c.Data, k, v)
		c.pairBytes += int64(len(k) + len(v))
	}
	if combine == nil {
		for _, i := range idxs {
			emit(buf.Key(i), buf.Val(i))
		}
		return c
	}
	var vals [][]byte // reused across groups; the combiner must not retain it
	i := 0
	for i < len(idxs) {
		key := buf.Key(idxs[i])
		j := i + 1
		for j < len(idxs) && kv.Compare(buf.Key(idxs[j]), key, nil) == 0 {
			j++
		}
		vals = vals[:0]
		sealed := c.pairBytes
		for k := i; k < j; k++ {
			vals = append(vals, buf.Val(idxs[k]))
			c.saved += int64(len(key) + len(buf.Val(idxs[k])))
		}
		c.combineInputs += len(vals)
		combine(key, vals, emit)
		c.saved -= c.pairBytes - sealed
		i = j
	}
	return c
}

// chargeChunk applies the CPU cost of one chunk's sort, combining, and
// serialization.
func chargeChunk(rt *engine.Runtime, p *sim.Proc, node *cluster.Node,
	costs engine.CostModel, c *encodedChunk) {
	node.Compute(p, engine.Dur(float64(c.cmps), costs.CompareNs), engine.PhaseSort)
	rt.Counters.Add(engine.CtrSortComparisons, float64(c.cmps))
	if c.combineInputs > 0 {
		node.Compute(p, engine.Dur(float64(c.combineInputs), costs.CombineNsPerRecord), engine.PhaseCombine)
	}
	node.Compute(p, engine.Dur(float64(len(c.Data)), costs.SerializeNsPerByte), engine.PhaseMapFn)
}

// stashPush returns job j's map-side engine.PushFunc: it delivers one chunk
// to its reducer, staging it to local disk and waiting when backpressure
// rejects the push (HOP's adaptive mode).
func stashPush(j *engine.JobRun) engine.PushFunc {
	rt := j.RT
	return func(p *sim.Proc, node *cluster.Node, task int, c kv.Chunk) bool {
		pc := j.Channels[c.Part]
		if pc.TryPush(p, node.ID, rt.ReducerNode(c.Part).ID, task, c.Seq, c.Data) {
			return true
		}
		if node.Failed() {
			rt.Counters.Add(engine.CtrPushChunksLost, 1)
			return false
		}
		// Adaptive mode: reducer overloaded. Stage the chunk to local disk,
		// wait for the reducer to catch up, then push from disk.
		store := node.ScratchStore()
		f := store.Create(fmt.Sprintf("%s/hop-map-%05d/stash-%05d-%04d", j.Job.Name, task, c.Part, c.Seq), false)
		store.Append(p, f, c.Data)
		rt.Counters.Add(engine.CtrMapSpillBytes, float64(len(c.Data)))
		if rt.Auditing() {
			rt.Audit.SpillWritten(node.ID, f.Size())
		}
		if rt.Tracing() {
			rt.Emit(trace.Spill, "map-stash", node.ID, task, 0,
				trace.Num("bytes", float64(len(c.Data))), trace.Num("reducer", float64(c.Part)))
		}
		pc.WaitSpace(p)
		store.Device().Read(p, f.Size(), false)
		if rt.Auditing() {
			rt.Audit.SpillRead(node.ID, f.Size())
		}
		store.Delete(f.Name())
		return j.PushChunk(p, node, task, c)
	}
}

// buildChunks maps block b on node and returns its output as sorted,
// combined, serialized chunks in sealed order, skipping the chunks below the
// delivery frontier already, with charge(i), chunk i's sort, combine and
// serialize bill on node. It is the engine's engine.Regen; a first attempt
// passes already nil, keeps every chunk and enters the task in the combine
// ledger. Chunk boundaries, sorting, and serialization are pure data work,
// so they ride inside the map task's pooled closure and overlap the parse
// charge; the bills land at each chunk's delivery point.
func buildChunks(j *engine.JobRun, p *sim.Proc, node *cluster.Node, b *dfs.Block, already []int) (chunks []kv.Chunk, charge func(i int)) {
	var encoded []encodedChunk
	buf, _, err := j.RT.ExecuteMapWith(p, node, j.Job, b, j.Partition, nil, func(wj *engine.Job, buf *kv.Buffer) {
		combine := wj.Fold().Combiner()
		mapChunks(buf, j.Job.Reducers, j.Opts.ChunkBytes, func(r, seq int, idxs []int) {
			if already != nil && seq < already[r] {
				return
			}
			c := sortEncodeChunk(buf, idxs, combine)
			c.Part, c.Seq = r, seq
			encoded = append(encoded, c)
		})
	})
	if err != nil {
		panic(fmt.Sprintf("hop: %v", err))
	}
	chunks = make([]kv.Chunk, len(encoded))
	var finalPairBytes, saved int64
	for i := range encoded {
		chunks[i] = encoded[i].Chunk
		finalPairBytes += encoded[i].pairBytes
		saved += encoded[i].saved
	}
	if already == nil && j.RT.Auditing() {
		j.RT.Audit.MapFinalPairs(b.Index, finalPairBytes)
		j.RT.Audit.CombineSaved(b.Index, saved)
	}
	j.RT.ReleaseBuffer(buf) // every chunk is an encoded copy
	return chunks, func(i int) { chargeChunk(j.RT, p, node, j.Costs, &encoded[i]) }
}

// runMapTask maps a block, then pushes its output as small sorted chunks.
// Pipelined emission: pairs are walked in production order, accumulating a
// per-reducer chunk; each full chunk is sorted (cheap — it's small) and
// pushed. Sorting many small chunks costs fewer mapper comparisons than one
// big sort; the deficit reappears as extra merge comparisons in the
// reducers — HOP "moves some of the sorting work to reducers" (§III.D).
// Delivery (network pushes, backpressure stalls, CPU charges) replays in
// sealed order on the event loop after the join.
func runMapTask(j *engine.JobRun, p *sim.Proc, node *cluster.Node, b *dfs.Block, push engine.PushFunc) {
	chunks, charge := buildChunks(j, p, node, b, nil)
	j.PushOutput(p, node, b.Index, fmt.Sprintf("%s/hop-map-%05d/progress", j.Job.Name, b.Index), chunks, charge, push)
}

// runReduceTask drains the push channel, spilling and merging exactly like
// stock Hadoop, emitting snapshots as input fractions are crossed, and
// finishing with the same blocking multi-pass + final merge.
func runReduceTask(j *engine.JobRun, p *sim.Proc, node *cluster.Node, r int) {
	rt, reg, pc := j.RT, j.Reg, j.Channels[r]
	rs := hadoop.NewReduceSide(rt, j.Job, j.Costs, node, r, j.Opts.FanIn)
	fractions := snapshotFractions
	if j.Opts.DisableSnapshots {
		fractions = nil
	}
	snapIdx := 0
	shuffleSpan := rt.Begin(metrics.Span{Name: engine.SpanShuffle, Phase: true, Node: node.ID, Task: r})
	for {
		chunk, ok := pc.PopFresh(p, node.ID)
		if !ok {
			break
		}
		rs.Add(p, chunk.Data)
		// Snapshot when the input fraction crosses the next threshold.
		for snapIdx < len(fractions) &&
			float64(reg.Completed())/float64(reg.TotalMaps()) >= fractions[snapIdx] {
			emitSnapshot(j, p, node, rs, r, fractions[snapIdx])
			snapIdx++
		}
	}
	rt.End(shuffleSpan)

	rs.Finish(p, j.OC)
}

// emitSnapshot repeats the merge over everything received so far — runs are
// re-read from disk, in-memory segments re-streamed — and applies the
// reduce function to produce an early answer. This is HOP's snapshot
// mechanism; the repeated merge is exactly the "significant I/O overhead"
// the paper calls out.
func emitSnapshot(j *engine.JobRun, p *sim.Proc, node *cluster.Node, rs *hadoop.ReduceSide, r int, frac float64) {
	rt, costs := j.RT, j.Costs
	span := rt.Begin(metrics.Span{Name: engine.SpanMerge, Phase: true, Node: node.ID, Task: r})
	var streams []kv.PairStream
	for _, run := range rs.Merger.RunList() {
		streams = append(streams, sortmerge.NewStream(p, run))
	}
	streams = append(streams, rs.Acc.PeekStreams()...)
	pairs := 0
	sink := newSnapshotSink(rt, p, node, j.Job, r, frac)
	// This merge runs on the event loop (its streams charge disk reads as they
	// refill), so it reduces through the job itself: pooled closures only ever
	// exercise their workers' clones.
	cmps, inputs := rs.MergeGroupReduce(streams, j.Job, func(k, v []byte) {
		pairs++
		sink.write(k, v)
	})
	sink.flush()
	node.Compute(p, engine.Dur(float64(cmps), costs.CompareNs), engine.PhaseMerge)
	node.Compute(p, engine.Dur(float64(inputs), costs.ReduceNsPerRecord), engine.PhaseReduce)
	rt.Counters.Add(engine.CtrMergeComparisons, float64(cmps))
	rt.Counters.Add("hop.snapshot.pairs", float64(pairs))
	j.OC.NoteSnapshot(p.Now(), frac, pairs)
	rt.End(span)
	if rt.Tracing() {
		rt.Emit(trace.EarlyAnswer, "snapshot", node.ID, r, 0,
			trace.Num("fraction", frac), trace.Num("pairs", float64(pairs)))
	}
}

// snapshotSink writes snapshot output to its own DFS file so snapshots
// don't pollute the final output. Nothing reads a snapshot file's payload,
// so no pair is encoded: the sink counts each pair's encoded size and
// charges the file in write-behind flushes, sealed at the first pair
// boundary at or past 128 KB.
type snapshotSink struct {
	p       *sim.Proc
	w       *dfs.Writer
	pending int64
}

// newSnapshotSink opens the snapshot's file.
func newSnapshotSink(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job, r int, frac float64) *snapshotSink {
	path := fmt.Sprintf("%s/snapshot-%03.0f/part-r-%05d", job.OutputPath, frac*100, r)
	w, err := rt.DFS.CreateWriter(path, node.ID, true)
	if err != nil {
		panic(fmt.Sprintf("hop: snapshot writer: %v", err))
	}
	return &snapshotSink{p: p, w: w}
}

func (s *snapshotSink) write(k, v []byte) {
	if s.pending += int64(kv.EncodedSize(k, v)); s.pending >= 128<<10 {
		s.flush()
	}
}

func (s *snapshotSink) flush() {
	if s.pending == 0 {
		return
	}
	s.w.AppendSize(s.p, s.pending)
	s.pending = 0
}
