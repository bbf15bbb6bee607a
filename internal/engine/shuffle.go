package engine

import (
	"fmt"

	"onepass/internal/disk"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// MapOutput is one completed map task's partitioned output. A pull engine
// persists it on the mapper node's scratch store as a single
// partition-ordered file plus an index — Hadoop's file.out/file.out.index
// layout, whose synchronous write the paper measures in §III.B.2 — and a
// recovered hash output is such a file too. A push delivery keeps only
// what a reader uses: the hash engines stage the tails they could not push
// as Leftover files, and a push-only engine's output is no file at all,
// just the recovery bookkeeping in Pushed and Delivered.
type MapOutput struct {
	TaskID int
	Node   int
	Store  *disk.Store

	// File holds all partitions back to back; PartOff/PartLen index them.
	File    *disk.File
	PartOff []int64
	PartLen []int64

	// Leftover, when non-nil for a partition, supersedes the main file for
	// pull fetches: the hash engine stages chunks it could not push there.
	Leftover []*disk.File

	CompletedAt sim.Time
	// Pushed marks partitions already delivered through push shuffle, so
	// pull-side fetchers skip them.
	Pushed []bool
	// Delivered counts push chunks successfully delivered per partition.
	// Re-execution after a node failure regenerates only the undelivered
	// tail, so recovered pulls never duplicate chunks a reducer already
	// ingested.
	Delivered []int
	// Lost marks the output as unavailable (its node failed); fetches
	// trigger re-execution of the map task.
	Lost bool

	consumed int
}

// NewMapOutput persists data — the task's partitions laid out back to back,
// partLen[r] bytes each (a kv.PartitionFrame's Data and PartLen) — as one
// indexed file on node's scratch store. The file adopts data rather than
// copying it, so the caller must not write through the slice afterwards.
// Callers charge serialization CPU themselves.
func NewMapOutput(p *sim.Proc, store *disk.Store, name string, taskID, node int,
	data []byte, partLen []int64) *MapOutput {
	parts := len(partLen)
	out := &MapOutput{
		TaskID: taskID, Node: node, Store: store,
		PartOff: make([]int64, parts), PartLen: partLen,
		Pushed: make([]bool, parts), Delivered: make([]int, parts),
	}
	var off int64
	for r, n := range partLen {
		out.PartOff[r] = off
		off += n
	}
	out.File = store.Create(name, false)
	if len(data) > 0 {
		store.Put(p, out.File, data)
	}
	return out
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

// ConsumePart releases partition part after its one consumer fetched it.
// Every partition not push-delivered has one such consumer; once each has
// consumed its own the backing file is deleted, so host memory stays
// bounded across large runs. The count lives on the output a recovery
// rewrites in place, so partitions consumed before the loss count too.
func (o *MapOutput) ConsumePart(part int) {
	o.consumed++
	if o.Leftover != nil && o.Leftover[part] != nil {
		o.Store.Delete(o.Leftover[part].Name())
		o.Leftover[part] = nil
	}
	pulled := len(o.PartLen)
	for _, pushed := range o.Pushed {
		if pushed {
			pulled--
		}
	}
	if o.consumed == pulled && o.File != nil {
		o.Store.Delete(o.File.Name())
	}
}

// WasPushed reports whether partition part was already push-delivered.
func (o *MapOutput) WasPushed(part int) bool {
	return o.Pushed != nil && o.Pushed[part]
}

// Registry is the pull-shuffle rendezvous: the centralized service reducers
// poll for completed mappers (§II.A). Completions are broadcast so waiting
// fetchers wake immediately rather than on a poll interval — the paper's
// "data transfer happens soon after a mapper completes".
type Registry struct {
	rt        *Runtime
	totalMaps int
	outs      []*MapOutput
	byTask    map[int]bool
	trig      *sim.Trigger
	// Reexec, when set, re-runs a lost map task and returns its fresh
	// output — the fault-tolerance path that justifies persisting map
	// output in the first place (§III.B.2). It receives the lost output so
	// push engines can regenerate only the chunks that were never
	// delivered (lost.Delivered / lost.Pushed).
	Reexec func(p *sim.Proc, readerNode int, lost *MapOutput) *MapOutput
	// reexecWait serializes recovery: the first fetcher of a lost output
	// re-runs the task, later fetchers wait for it instead of piling on.
	reexecWait map[int]*sim.Trigger
}

// freshWindow is how long a completed map output is assumed to remain in
// the mapper's page cache; fetches within it skip the source disk read.
const freshWindow = 30 * sim.Second

// NewRegistry returns a registry expecting totalMaps completions.
func (rt *Runtime) NewRegistry(totalMaps int) *Registry {
	return &Registry{
		rt:         rt,
		totalMaps:  totalMaps,
		byTask:     make(map[int]bool),
		trig:       rt.Env.NewTrigger("map-completions"),
		reexecWait: make(map[int]*sim.Trigger),
	}
}

// Complete registers a finished map task and wakes waiting fetchers. A map
// task commits once: recovery rewrites a lost output in place and never
// comes here, so a second commit of one task id is a broken invariant.
func (g *Registry) Complete(out *MapOutput) {
	if g.byTask[out.TaskID] {
		panic(fmt.Sprintf("engine: map task %d committed twice", out.TaskID))
	}
	g.byTask[out.TaskID] = true
	out.CompletedAt = g.rt.Env.Now()
	if g.rt.Cluster.Node(out.Node).Failed() {
		// The task finished writing to a machine that just died: the bytes
		// are gone; the first fetch will trigger re-execution.
		out.Lost = true
	}
	g.outs = append(g.outs, out)
	if len(g.outs) > g.totalMaps {
		panic("engine: more map completions than map tasks")
	}
	g.trig.Broadcast()
}

// FailNode marks every completed output persisted on node as lost.
func (g *Registry) FailNode(node int) {
	for _, out := range g.outs {
		if out.Node == node {
			out.Lost = true
		}
	}
}

// Completed returns the number of registered map outputs.
func (g *Registry) Completed() int { return len(g.outs) }

// TotalMaps returns the expected number of map tasks.
func (g *Registry) TotalMaps() int { return g.totalMaps }

// AllDone reports whether every map task has completed.
func (g *Registry) AllDone() bool { return len(g.outs) == g.totalMaps }

// Out returns the i-th completed map output (completion order).
func (g *Registry) Out(i int) *MapOutput { return g.outs[i] }

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
// the network, and returns the encoded pair bytes. A source that dies
// mid-transfer voids the fetch: the fetcher backs off and retries against
// the re-executed attempt rather than returning bytes from a dead machine.
// The caller must ConsumePart afterwards.
func (g *Registry) FetchPart(p *sim.Proc, readerNode int, out *MapOutput, part int) []byte {
	for attempt := 0; ; attempt++ {
		for out.Lost {
			if g.Reexec == nil {
				panic("engine: lost map output with no re-execution path")
			}
			if tr, inFlight := g.reexecWait[out.TaskID]; inFlight {
				// Another reducer is already recovering this task.
				tr.Wait(p)
				continue
			}
			tr := g.rt.Env.NewTrigger(fmt.Sprintf("reexec-%d", out.TaskID))
			g.reexecWait[out.TaskID] = tr
			fresh := g.Reexec(p, readerNode, out)
			out.Store = fresh.Store
			out.File = fresh.File
			out.PartOff, out.PartLen = fresh.PartOff, fresh.PartLen
			out.Leftover = fresh.Leftover
			out.Pushed, out.Delivered = fresh.Pushed, fresh.Delivered
			out.Node = fresh.Node
			out.CompletedAt = p.Now()
			out.Lost = false
			delete(g.reexecWait, out.TaskID)
			tr.Broadcast()
			g.rt.Counters.Add(CtrTasksReexecuted, 1)
			g.rt.Emit(trace.Fault, "map-reexec", readerNode, -1, 0,
				trace.Num("map", float64(out.TaskID)))
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
			// into the re-execution path above.
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
// done. Partitions already push-delivered are skipped; every other one —
// empty ones included — is fetched to readerNode, entered in the audit's
// ingest ledger as one whole-partition unit, handed over, then consumed.
// ingest owns data read-only: it is a slice of the map output's immutable
// frame, which ConsumePart merely unlinks.
func (g *Registry) Pull(p *sim.Proc, readerNode, part int, ingest func(data []byte)) {
	for seen := 0; ; {
		g.WaitBeyond(p, seen)
		for ; seen < len(g.outs); seen++ {
			out := g.outs[seen]
			if out.WasPushed(part) {
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
