package engine

import (
	"fmt"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// Partitioner assigns a key to one of n reduce partitions.
type Partitioner func(key []byte, n int) int

// MapSink takes one pair the map function emitted, with its partition. The
// key and value are only the sink's for the duration of the call.
type MapSink func(part int, key, val []byte)

// ExecuteMap runs the map data path shared by every engine with no
// engine step after it: read the block, map its records and partition the
// emitted pairs into a buffer that goes back to the free list at the join.
// It returns the number of pairs emitted. The bench's map-function probe
// times it; engines call ExecuteMapWith.
func (rt *Runtime) ExecuteMap(p *sim.Proc, node *cluster.Node, job *Job, b *dfs.Block, part Partitioner) (pairs int, err error) {
	return rt.ExecuteMapWith(p, node, job, b, part, nil, nil)
}

// ExecuteMapWith performs the data path of one map task shared by every
// engine: read the block (DFS I/O), iterate its records (parse CPU), run the
// map function (CPU), and send each emitted pair to its partition (hash
// CPU), returning how many pairs Map emitted. Where the pairs go is the
// engine's. With into nil every emitted pair is copied into a map-output
// buffer from the free list, acquired once the block is read — the
// sort-merge engines' path, and an undeclared job's. Otherwise into is
// called once, in the map closure with the worker's job, and the sink it
// returns takes each pair the moment Map emits it: a declared job's combine
// tables fold it there, no buffer is filled (post is handed nil) and the
// task passes the free list by (MapBuffers.pass). What into builds is the
// task's alone, neither pooled nor kept past the task.
// Either way the counters, the partition-hash charge and the audit's raw
// map-output bytes come from the emission.
//
// post is pure data work over the finished output (sort, combine, chunk or
// frame encoding) that runs inside the same dispatched closure as the map
// loop, so with the worker pool enabled it overlaps other tasks' virtual I/O
// and compute. It is the last code to see the buffer: ExecuteMapWith hands
// the buffer back to the free list at the join, before any charge after it,
// so a task that starts while this one is still being charged reuses it.
// Whatever post keeps must therefore be a copy — an encoded frame or chunk,
// a byte count — never a slice aliasing the buffer. into, its sink and post
// follow the StartWork ownership rules — no Runtime, Proc, or shared-scratch
// access — and reach the job's functions and Fold only through the wj they
// are handed (see StartJobWork). The CPU charges for whatever they did are
// the caller's responsibility, after this returns.
func (rt *Runtime) ExecuteMapWith(p *sim.Proc, node *cluster.Node, job *Job, b *dfs.Block, part Partitioner, into func(wj *Job) MapSink, post func(wj *Job, buf *kv.Buffer)) (pairs int, err error) {
	costs := job.Costs.Merged()
	data, err := rt.DFS.ReadBlock(p, b, node.ID)
	if err != nil {
		return 0, fmt.Errorf("map task %s[%d]: %w", b.Path, b.Index, err)
	}
	rt.Counters.Add(CtrMapInputBytes, float64(len(data)))

	// The record loop is pure data work: it reads only the fetched block and
	// writes only the task-owned destination and three locals. Dispatch it
	// (plus the engine's post step) to the pool, overlapping the parse
	// charge below, which depends only on len(data).
	// Serially the closure runs inline here — either way it executes zero
	// virtual operations, so the event schedule is identical in both modes.
	var buf *kv.Buffer
	if into == nil {
		buf = rt.AcquireBuffer(len(data))
	} else {
		rt.MapBuffers.pass()
	}
	records := 0
	var outBytes int64
	work := rt.StartJobWork(p, job, func(wj *Job) {
		var sink MapSink
		if into != nil {
			sink = into(wj)
		} else if job.BinaryInput {
			// A pair-encoded block states its pair count: a forwarding map
			// (a chained stage, a delta merge) emits one pair per pair read,
			// so the buffer's references are sized once.
			buf.ReservePairs(kv.CountPairs(data))
		}
		emit := func(key, val []byte) {
			pt := part(key, job.Reducers)
			if sink != nil {
				sink(pt, key, val)
			} else {
				buf.Add(pt, key, val)
			}
			pairs++
			outBytes += int64(len(key) + len(val))
		}
		wj.Reader(data, func(rec []byte) {
			records++
			wj.Map(rec, emit)
		})
		if post != nil {
			post(wj, buf)
		}
	})

	// Parse: charge per input byte at the format's rate.
	parseNs := costs.ParseNsPerByte
	if job.BinaryInput {
		parseNs = costs.BinaryParseNsPerByte
	}
	node.Compute(p, Dur(float64(len(data)), parseNs), PhaseParse)
	work.Wait()
	// The closure is done with the buffer; the charges below need only its
	// counts, so the next task may have it while they run.
	rt.ReleaseBuffer(buf)
	// The closure counts into locals, never the shared Counters bag, whose
	// summation order would then depend on real-goroutine interleaving;
	// the counts enter it here, in virtual order.
	rt.Counters.Add(CtrMapInputRecords, float64(records))
	rt.Counters.Add(CtrMapOutputRecords, float64(pairs))
	rt.Counters.Add(CtrMapOutputBytes, float64(outBytes))

	node.Compute(p, Dur(float64(records), costs.MapNsPerRecord)+
		Dur(float64(outBytes), costs.MapNsPerOutputByte), PhaseMapFn)
	node.Compute(p, Dur(float64(records), costs.FrameworkNsPerRecord), PhaseFramework)
	// Partition decisions (one hash per emitted pair).
	node.Compute(p, Dur(float64(pairs), costs.HashNs), PhaseHash)
	rt.Counters.Add(CtrHashOps, float64(pairs))
	if rt.Auditing() {
		rt.Audit.MapRawPairs(b.Index, outBytes)
	}
	return pairs, nil
}

// CombineSorted applies combine (a task's Fold.Combiner) to each
// (partition, key) group of an already-sorted buffer, adding the combined
// pairs to out. It returns the number of input values consumed (for CPU
// charging) and the pair bytes combining saved — each group's input pair
// bytes less the pair bytes it emitted, counted group by group for the
// combine-conservation audit.
func CombineSorted(combine ReduceFunc, buf, out *kv.Buffer) (inputs int, saved int64) {
	var p int
	emit := func(k, v []byte) {
		out.Add(p, k, v)
		saved -= int64(len(k) + len(v))
	}
	i := 0
	var vals [][]byte // reused across groups; the combiner must not retain it
	for i < buf.Len() {
		p = buf.Partition(i)
		key := buf.Key(i)
		j := i + 1
		for j < buf.Len() && buf.Partition(j) == p && kv.Compare(buf.Key(j), key, nil) == 0 {
			j++
		}
		vals = vals[:0]
		for k := i; k < j; k++ {
			vals = append(vals, buf.Val(k))
			saved += int64(len(key) + len(buf.Val(k)))
		}
		inputs += len(vals)
		combine(key, vals, emit)
		i = j
	}
	return inputs, saved
}

// WriteMapOutput persists data — partitions back to back, partLen[r] bytes
// each — as out's one partition-indexed file on node's scratch store,
// moving out to node: the synchronous map-output write required for fault
// tolerance (§III.B.2), on a first attempt and on a recovery alike. The
// file adopts data. Each partition its reader does not yet hold enters the
// audit's shuffle ledger as one whole-partition unit, which Registry.Pull
// deliveries must balance.
func (rt *Runtime) WriteMapOutput(p *sim.Proc, node *cluster.Node, job *Job, out *MapOutput, data []byte, partLen []int64) {
	writeStart := p.Now()
	costs := job.Costs.Merged()
	out.persist(p, node.ScratchStore(), fmt.Sprintf("%s/map-%05d/file.out", job.Name, out.TaskID), node.ID, data, partLen)
	total := out.File.Size()
	node.Compute(p, Dur(float64(total), costs.SerializeNsPerByte), PhaseMapFn)
	rt.Counters.Add(CtrMapWrittenBytes, float64(total))
	// §III.B.2: how long the synchronous map-output write takes relative to
	// the whole map task (the paper measured 1.3 s of 21.6 s ≈ 6%).
	rt.Counters.Add(CtrMapOutputWriteSeconds, p.Now().Sub(writeStart).Seconds())
	if rt.Tracing() {
		rt.Emit(trace.OutputWrite, "map-output", node.ID, out.TaskID, 0,
			trace.Num("bytes", float64(total)),
			trace.Num("seconds", p.Now().Sub(writeStart).Seconds()))
	}
	if rt.Auditing() {
		for r, n := range partLen {
			if out.Held[r] != HeldAll {
				rt.Audit.ShuffleProduced(node.ID, out.TaskID, r, -1, n)
			}
		}
	}
}
