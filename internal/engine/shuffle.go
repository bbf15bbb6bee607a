package engine

import (
	"fmt"
	"math"
	"slices"

	"onepass/internal/disk"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// MapOutput is one completed map task's partitioned output. A pull engine
// persists it on the mapper node's scratch store as a single
// partition-ordered file plus an index — Hadoop's file.out/file.out.index
// layout, whose synchronous write the paper measures in §III.B.2 — and a
// recovered pulled output is such a file too. A push delivery keeps only
// what a reader uses: the hash engines stage the tails they could not push
// as Leftover files, and a push-only engine's output is no file at all,
// just its frontier in Held.
type MapOutput struct {
	TaskID int
	Node   int
	// Store holds the output's file and leftovers; it is nil for a push-only
	// output, whose partitions reach their readers only by push, as its
	// recovery's do.
	Store *disk.Store

	// File holds all partitions back to back; PartOff/PartLen index them.
	File    *disk.File
	PartOff []int64
	PartLen []int64

	// Leftover, when non-nil for a partition, supersedes the main file for
	// pull fetches: the hash engine stages chunks it could not push there.
	Leftover []*disk.File

	CompletedAt sim.Time
	// Held is each partition's frontier: what its reader already holds. It
	// counts the partition's push chunks delivered, a prefix in seal order,
	// and is HeldAll once the reader holds the whole partition — every chunk
	// pushed, or the staged leftover or pulled partition consumed. A
	// recovery regenerates only past it, and Pull skips a partition held.
	Held []int
	// Lost marks the output as unavailable: its node failed before every
	// reader held its partition. Its one recovery (JobRun.Recover) is in
	// flight, and a fetcher waits for it.
	Lost bool
}

// HeldAll is the frontier of a partition whose reader holds all of it.
const HeldAll = math.MaxInt

// persist writes data — the task's partitions laid out back to back,
// partLen[r] bytes each (a kv.PartitionFrame's Data and PartLen) — as the
// output's one indexed file on store, on node, in place of whatever file
// and leftovers the output had. The file adopts data rather than copying
// it, so the caller must not write through the slice afterwards.
func (o *MapOutput) persist(p *sim.Proc, store *disk.Store, name string, node int, data []byte, partLen []int64) {
	o.Node, o.Store, o.Leftover = node, store, nil
	o.PartOff, o.PartLen = make([]int64, len(partLen)), partLen
	var off int64
	for r, n := range partLen {
		o.PartOff[r] = off
		off += n
	}
	o.File = store.Create(name, false)
	if len(data) > 0 {
		store.Put(p, o.File, data)
	}
}

// PartSize returns the byte size of partition part.
func (o *MapOutput) PartSize(part int) int64 {
	if o.Leftover != nil && o.Leftover[part] != nil {
		return o.Leftover[part].Size()
	}
	return o.PartLen[part]
}

// PartData returns partition part's encoded pairs without charging I/O.
func (o *MapOutput) PartData(part int) []byte {
	if o.Leftover != nil && o.Leftover[part] != nil {
		return o.Leftover[part].Data()
	}
	if o.File == nil || o.File.Data() == nil {
		return nil
	}
	// Capacity clipped: the next partition's bytes follow in the same frame.
	off, end := o.PartOff[part], o.PartOff[part]+o.PartLen[part]
	return o.File.Data()[off:end:end]
}

// ConsumePart records that partition part's one reader fetched it and now
// holds it whole. Its staged leftover is deleted at once, the backing file
// once every partition is held, so host memory stays bounded across large
// runs.
func (o *MapOutput) ConsumePart(part int) {
	o.Held[part] = HeldAll
	if o.Leftover != nil && o.Leftover[part] != nil {
		o.Store.Delete(o.Leftover[part].Name())
		o.Leftover[part] = nil
	}
	if o.File != nil && o.allHeld() {
		o.Store.Delete(o.File.Name())
	}
}

// allHeld reports whether every partition's reader holds all of it.
func (o *MapOutput) allHeld() bool {
	return !slices.ContainsFunc(o.Held, func(h int) bool { return h != HeldAll })
}

// Registry is the pull-shuffle rendezvous: the centralized service reducers
// poll for completed mappers (§II.A). Completions are broadcast so waiting
// fetchers wake immediately rather than on a poll interval — the paper's
// "data transfer happens soon after a mapper completes". It is also where a
// loss is noticed: FailNode and Complete start the lost output's recovery.
type Registry struct {
	rt        *Runtime
	totalMaps int
	outs      []*MapOutput
	byTask    map[int]bool
	trig      *sim.Trigger
	// job regenerates a lost output (JobRun.Recover). recovering counts the
	// recoveries in flight, and recovered, made at the first loss,
	// broadcasts the end of each.
	job        *JobRun
	recovering int
	recovered  *sim.Trigger
}

// freshWindow is how long a completed map output is assumed to remain in
// the mapper's page cache; fetches within it skip the source disk read.
const freshWindow = 30 * sim.Second

// NewRegistry returns a registry expecting totalMaps completions.
func (rt *Runtime) NewRegistry(totalMaps int) *Registry {
	return &Registry{
		rt:        rt,
		totalMaps: totalMaps,
		byTask:    make(map[int]bool),
		trig:      rt.Env.NewTrigger("map-completions"),
	}
}

// Complete registers a finished map task and wakes waiting fetchers. A map
// task commits once: recovery rewrites a lost output in place and never
// comes here, so a second commit of one task id is a broken invariant. An
// output that finished on a node already dead is lost at once.
func (g *Registry) Complete(out *MapOutput) {
	if g.byTask[out.TaskID] {
		panic(fmt.Sprintf("engine: map task %d committed twice", out.TaskID))
	}
	g.byTask[out.TaskID] = true
	out.CompletedAt = g.rt.Env.Now()
	g.outs = append(g.outs, out)
	if len(g.outs) > g.totalMaps {
		panic("engine: more map completions than map tasks")
	}
	if g.rt.Cluster.Node(out.Node).Failed() {
		g.lose(out)
	}
	g.trig.Broadcast()
}

// FailNode loses every registered output on node.
func (g *Registry) FailNode(node int) {
	for _, out := range g.outs {
		if out.Node == node {
			g.lose(out)
		}
	}
}

// lose marks out lost and starts its one recovery, unless a recovery is
// already in flight or its readers hold every partition.
func (g *Registry) lose(out *MapOutput) {
	if out.Lost || out.allHeld() {
		return
	}
	if g.job == nil || g.job.rebuild == nil {
		panic("engine: lost map output with no recovery path")
	}
	out.Lost = true
	if g.recovered == nil {
		g.recovered = g.rt.Env.NewTrigger("map-recoveries")
	}
	g.recovering++
	g.rt.Env.Go(fmt.Sprintf("recover-map-%d", out.TaskID), func(p *sim.Proc) {
		g.job.Recover(p, out)
		g.recovering--
		g.recovered.Broadcast()
	})
}

// WaitRecoveries blocks p until no recovery is in flight.
func (g *Registry) WaitRecoveries(p *sim.Proc) {
	for g.recovering > 0 {
		g.recovered.Wait(p)
	}
}

// Completed returns the number of registered map outputs.
func (g *Registry) Completed() int { return len(g.outs) }

// TotalMaps returns the expected number of map tasks.
func (g *Registry) TotalMaps() int { return g.totalMaps }

// AllDone reports whether every map task has completed.
func (g *Registry) AllDone() bool { return len(g.outs) == g.totalMaps }

// WaitBeyond blocks p until more than seen outputs exist or all maps are
// done.
func (g *Registry) WaitBeyond(p *sim.Proc, seen int) {
	for len(g.outs) <= seen && !g.AllDone() {
		g.trig.Wait(p)
	}
}

// fetchBackoff is the deterministic exponential backoff a fetcher sleeps
// after abandoning a transfer whose source died mid-flight: 200ms doubling
// per attempt, capped at 5s (Hadoop's fetch retry, minus the jitter —
// determinism is the reproduction's invariant).
func fetchBackoff(attempt int) sim.Duration {
	d := 200 * sim.Millisecond
	for ; attempt > 0 && d < 5*sim.Second; attempt-- {
		d *= 2
	}
	if d > 5*sim.Second {
		d = 5 * sim.Second
	}
	return d
}

// FetchPart transfers partition part of a completed map output to
// readerNode, charging the source disk (unless still fresh in cache) and
// the network, and returns the encoded pair bytes. A lost output is fetched
// once its recovery has rewritten it. A source that dies mid-transfer voids
// the fetch: the fetcher backs off and retries against the recovered output
// rather than returning bytes from a dead machine. The caller must
// ConsumePart afterwards.
func (g *Registry) FetchPart(p *sim.Proc, readerNode int, out *MapOutput, part int) []byte {
	for attempt := 0; ; attempt++ {
		for out.Lost {
			g.recovered.Wait(p)
		}
		size := out.PartSize(part)
		if size == 0 {
			return nil
		}
		aged := p.Now().Sub(out.CompletedAt) > freshWindow
		if aged {
			// Aged out of the mapper's memory: read back from its disk, as a
			// random access competing with everything else on that spindle.
			out.Store.Device().Read(p, size, false)
		}
		g.rt.Cluster.Net.Transfer(p, out.Node, readerNode, size)
		if out.Lost {
			// The source died while we were mid-fetch: the connection is
			// gone and the bytes cannot be trusted. Back off, then loop back
			// to wait for the recovery above.
			g.rt.Counters.Add(CtrShuffleRetries, 1)
			g.rt.Emit(trace.Fault, "shuffle-retry", readerNode, part, attempt,
				trace.Num("map", float64(out.TaskID)))
			p.Sleep(fetchBackoff(attempt))
			continue
		}
		data := out.PartData(part)
		g.rt.Counters.Add(CtrShuffleBytes, float64(size))
		if g.rt.Tracing() {
			diskRead := 0.0
			if aged {
				diskRead = 1
			}
			// part doubles as the reducer index under every engine's
			// partition→reducer identity mapping.
			g.rt.Emit(trace.ShuffleTransfer, "shuffle-transfer", readerNode, part, 0,
				trace.Str("mode", "pull"), trace.Num("map", float64(out.TaskID)),
				trace.Num("bytes", float64(size)), trace.Num("diskRead", diskRead))
		}
		return data
	}
}

// Pull is a reducer's pull shuffle: it hands partition part of every
// completed map output to ingest, in completion order, until all maps are
// done. Partitions their reader already holds are skipped; every other one —
// empty ones included — is fetched to readerNode, entered in the audit's
// ingest ledger as one whole-partition unit, handed over, then consumed.
// ingest owns data read-only: it is a slice of the map output's immutable
// frame, which ConsumePart merely unlinks.
func (g *Registry) Pull(p *sim.Proc, readerNode, part int, ingest func(data []byte)) {
	for seen := 0; ; {
		g.WaitBeyond(p, seen)
		for ; seen < len(g.outs); seen++ {
			out := g.outs[seen]
			if out.Held[part] == HeldAll {
				continue
			}
			data := g.FetchPart(p, readerNode, out, part)
			if g.rt.Auditing() {
				g.rt.Audit.ShuffleIngested(out.TaskID, part, -1, int64(len(data)))
			}
			ingest(data)
			out.ConsumePart(part)
		}
		if g.AllDone() {
			return
		}
	}
}

// PushChunk is one eagerly-pushed piece of map output (HOP-style pipelining
// and the hash engine's push shuffle).
type PushChunk struct {
	MapTask int
	// Seq numbers the chunk within its (map task, reducer) stream. The map
	// function is deterministic, so a chunk recovery re-pushes carries the
	// lost attempt's content under the same (MapTask, Seq). Recovery pushes
	// only past the delivery frontier, so no identity arrives twice; the
	// audit's ingest ledger would report one that did.
	Seq  int
	Data []byte
}

// PushChannel is one reducer's inbound push queue with a byte-bounded
// backpressure threshold: when the reducer falls behind, TryPush refuses
// and the mapper stages the chunk to local disk instead — MapReduce
// Online's adaptive flow control (§III.D).
type PushChannel struct {
	rt      *Runtime
	reducer int
	// queue is FIFO with an explicit head index; popped slots are zeroed and
	// the backing array is rewound or compacted instead of reallocated.
	queue       []PushChunk
	head        int
	queuedBytes int64
	limit       int64
	trig        *sim.Trigger
	closed      bool
}

// NewPushChannels returns one channel per reducer with the given
// backpressure limit in bytes.
func (rt *Runtime) NewPushChannels(reducers int, limit int64) []*PushChannel {
	out := make([]*PushChannel, reducers)
	for r := range out {
		out[r] = &PushChannel{
			rt:      rt,
			reducer: r,
			limit:   limit,
			trig:    rt.Env.NewTrigger(fmt.Sprintf("push-r%d", r)),
		}
	}
	return out
}

// TryPush attempts to push data from fromNode to the reducer (running on
// toNode). It returns false without transferring when the queue is over its
// backpressure limit, or when the sending node has failed — a dead machine's
// NIC delivers nothing, so the chunk must reach the reducer through the
// recovery path instead.
func (pc *PushChannel) TryPush(p *sim.Proc, fromNode, toNode, mapTask, seq int, data []byte) bool {
	if pc.closed {
		// The queue closes after the map barrier and recovery's re-pushes,
		// so nothing may push into it afterwards.
		panic(fmt.Sprintf("engine: push to reducer %d after its queue closed", pc.reducer))
	}
	if pc.queuedBytes >= pc.limit {
		return false
	}
	if pc.rt.Cluster.Node(fromNode).Failed() {
		return false
	}
	pc.rt.Cluster.Net.Transfer(p, fromNode, toNode, int64(len(data)))
	if pc.rt.Cluster.Node(fromNode).Failed() {
		// Died mid-transfer: the chunk never fully arrived.
		return false
	}
	pc.rt.Counters.Add(CtrShuffleBytes, float64(len(data)))
	if pc.rt.Auditing() {
		// The one point where a pushed chunk has actually crossed the wire:
		// refused and died-mid-transfer attempts never reach here, so the
		// produced ledger records real transfers only.
		pc.rt.Audit.ShuffleProduced(fromNode, mapTask, pc.reducer, seq, int64(len(data)))
	}
	if pc.rt.Tracing() {
		pc.rt.Emit(trace.ShuffleTransfer, "shuffle-transfer", fromNode, mapTask, 0,
			trace.Str("mode", "push"), trace.Num("reducer", float64(pc.reducer)),
			trace.Num("bytes", float64(len(data))))
	}
	pc.queue = append(pc.queue, PushChunk{MapTask: mapTask, Seq: seq, Data: data})
	pc.queuedBytes += int64(len(data))
	pc.trig.Broadcast()
	return true
}

// Pop blocks p until a chunk is available or the channel is closed and
// drained; ok=false means end of stream. The chunk enters the audit's
// ingest ledger at the reducer's node.
func (pc *PushChannel) Pop(p *sim.Proc) (PushChunk, bool) {
	for pc.head == len(pc.queue) {
		if pc.closed {
			return PushChunk{}, false
		}
		pc.trig.Wait(p)
	}
	c := pc.queue[pc.head]
	pc.queue[pc.head] = PushChunk{} // release the chunk data reference
	pc.head++
	if pc.head == len(pc.queue) {
		pc.queue = pc.queue[:0]
		pc.head = 0
	} else if pc.head >= 64 && pc.head*2 >= len(pc.queue) {
		n := copy(pc.queue, pc.queue[pc.head:])
		pc.queue = pc.queue[:n]
		pc.head = 0
	}
	pc.queuedBytes -= int64(len(c.Data))
	pc.trig.Broadcast() // wake throttled producers polling for space
	if pc.rt.Auditing() {
		pc.rt.Audit.ShuffleIngested(c.MapTask, pc.reducer, c.Seq, int64(len(c.Data)))
	}
	return c, true
}

// Close marks end of stream and wakes consumers.
func (pc *PushChannel) Close() {
	pc.closed = true
	pc.trig.Broadcast()
}

// WaitSpace blocks p until the queue is under its limit or closed.
func (pc *PushChannel) WaitSpace(p *sim.Proc) {
	for pc.queuedBytes >= pc.limit && !pc.closed {
		pc.trig.Wait(p)
	}
}
