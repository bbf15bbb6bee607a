package engine

import (
	"math"
	"sync"

	"onepass/internal/kv"
	"onepass/internal/sim"
)

// KeyWalk is a reducer's per-key states in the order it finalizes them,
// walked in pieces: Walk visits (key, state) from cursor from on — 0 starts
// the walk — until visit returns false or the keys run out, and returns the
// cursor to resume at, or -1 once it has visited the last key. Finalize walks
// on the worker pool while the event loop runs, so nothing may modify the
// states, or the memory the visited slices alias, until Finalize returns.
type KeyWalk interface {
	Walk(from int, visit func(key, state []byte) bool) (next int)
}

// KeyCost is the reduce CPU finalizing one key charges after its pairs'
// serialize charges: so much per key, per value Finish reports finishing,
// and per byte of the key's state.
type KeyCost struct {
	PerKeyNs, PerValueNs, PerStateByteNs float64
}

// of is the charge for a key of stateLen bytes of state whose Finish
// finished values values.
func (c KeyCost) of(values, stateLen int) sim.Duration {
	return Dur(1, c.PerKeyNs) + Dur(float64(values), c.PerValueNs) + Dur(float64(stateLen), c.PerStateByteNs)
}

// A batch of finalized keys closes at finalizeBatchKeys keys — the first at
// finalizeFirstKeys and each next one at twice its predecessor's, so the
// event loop waits on a small batch only, before its first charge — or once
// it holds finalizeBatchPairs pairs. A key that emits more is staged whole.
const (
	finalizeFirstKeys  = 8
	finalizeBatchKeys  = 64
	finalizeBatchPairs = 256
)

// finalBatch is one batch of a reducer's finalized keys: staged by a pooled
// closure, replayed on the event loop after the join.
type finalBatch struct {
	// out holds the keys' pairs' sizes and checksum sum: a sized Staged,
	// since kept pairs are encoded into file.
	out  Staged
	keys []stagedKey
	// file is the reducer's kept output as the batch leaves it: the part
	// file's bytes so far with the batch's pairs encoded past them.
	file []byte
	// next is the walk's cursor after the batch, -1 once it is done.
	next int
	// err is the last key's Finish error, and panicked what its Finish
	// panicked with (Abort from Reduce): either ends the walk at that key.
	err      error
	panicked any
}

// stagedKey is what the replay needs of one finalized key.
type stagedKey struct {
	pairs  int // the key's pairs end at this index of out.encLens
	values int // Finish's value count
	state  int // the state's length
}

// finalizer is one Finalize call's pipeline: two batches, one staging on the
// pool while the other replays, and the closures that stage, built once.
// Finalizers are recycled process-wide (finalizers), so a reduce task
// finalizes without allocating one.
type finalizer struct {
	oc   *OutputCollector
	fold *Fold // the task's own, which an inline closure stages through
	keys KeyWalk
	// cur, from and limit aim the next dispatch: the batch it stages, the
	// walk cursor it starts at and how many keys it may take. fin is the Fold
	// the dispatched closure stages through, set on its own thread.
	cur         *finalBatch
	from, limit int
	fin         *Fold
	// kept says the output is kept, and file is where its pairs are
	// encoded: the reducer's part-file bytes, grown as Emit grows them.
	// Between a dispatch and its join only the closure touches file.
	kept    bool
	file    []byte
	batches [2]finalBatch

	onWorker func(worker int)
	inline   func()
	visit    func(key, state []byte) bool
	emit     Emit
}

// finalizers is the process's idle finalizers. Once as many exist as ever
// run at once, a Finalize makes none. Unlike a sync.Pool's, they are not
// dropped at a collection (or at random, as the race detector's Pool
// drops them), so what a reduce task allocates does not depend on when it
// ran.
var finalizers struct {
	sync.Mutex
	idle []*finalizer
}

// getFinalizer returns an idle finalizer, or a new one.
func getFinalizer() *finalizer {
	finalizers.Lock()
	defer finalizers.Unlock()
	n := len(finalizers.idle)
	if n == 0 {
		return newFinalizer()
	}
	f := finalizers.idle[n-1]
	finalizers.idle = finalizers.idle[:n-1]
	return f
}

// putFinalizer makes f idle; it must be done with its Finalize. A length
// list that a key with many pairs grew past twice a batch's goes: an idle
// finalizer holds a bounded few kilobytes.
func putFinalizer(f *finalizer) {
	f.oc, f.fold, f.keys, f.cur, f.fin, f.file = nil, nil, nil, nil, nil, nil
	for i := range f.batches {
		b := &f.batches[i]
		b.file = nil
		if cap(b.out.encLens) > 2*finalizeBatchPairs {
			b.out.encLens = make([]uint32, 0, finalizeBatchPairs)
		}
	}
	finalizers.Lock()
	finalizers.idle = append(finalizers.idle, f)
	finalizers.Unlock()
}

func newFinalizer() *finalizer {
	f := &finalizer{}
	f.onWorker = func(worker int) { f.stage(f.oc.rt.jobOn(worker, f.oc.job)) }
	f.inline = func() { f.stage(f.oc.job) }
	f.visit = f.stageKey
	f.emit = func(key, val []byte) {
		f.cur.out.Add(key, val)
		if f.kept {
			f.file = kv.AppendPair(grow(f.file, kv.EncodedSize(key, val), math.MaxInt), key, val)
		}
	}
	for i := range f.batches {
		b := &f.batches[i]
		b.out = Staged{sized: true, encLens: make([]uint32, 0, finalizeBatchPairs)}
		b.keys = make([]stagedKey, 0, finalizeBatchKeys)
	}
	return f
}

// Finalize finishes every key of keys through fold — the reduce task's own
// Fold of the collector's job — and emits the answers from reducer r running
// on node nodeID, charging each key cost after its pairs: the virtual
// sequence of one Finish, Emit per pair and Compute per key on the event
// loop, pair for pair and charge for charge. The Finish calls run instead in
// Runtime.StartJobWork closures, a batch of keys each, and batch k+1 is
// dispatched before batch k replays, so the pool finishes keys while the
// event loop charges the ones before them. Kept pairs are encoded by the
// closures straight into the part file's bytes, past what the replay has
// handed the file, through the buffer growth Emit would have made. A key
// whose Finish fails ends the task when the replay reaches it, after the
// pairs it emitted: an error through Runtime.Fail, as a reduce TaskError,
// and a panic (Abort from Reduce) raised again as it came.
func (oc *OutputCollector) Finalize(p *sim.Proc, r, nodeID int, fold *Fold, keys KeyWalk, cost KeyCost) {
	f := getFinalizer()
	f.oc, f.fold, f.keys, f.kept = oc, fold, keys, !oc.job.DiscardOutput
	if w := oc.writers[r]; w != nil {
		f.file = w.buf
	}
	b, limit := &f.batches[0], finalizeFirstKeys
	work := f.start(p, b, 0, limit)
	for {
		work.Wait()
		last := b.next < 0 || b.err != nil || b.panicked != nil
		next := &f.batches[0]
		if next == b {
			next = &f.batches[1]
		}
		if !last {
			limit = min(2*limit, finalizeBatchKeys)
			work = f.start(p, next, b.next, limit)
		}
		oc.replay(p, r, nodeID, b, cost)
		if last {
			break
		}
		b = next
	}
	putFinalizer(f)
}

// start dispatches the staging of batch b: up to limit keys from cursor
// from. As in StartJobWork, a job without Fresh stages inline.
func (f *finalizer) start(p *sim.Proc, b *finalBatch, from, limit int) *sim.Work {
	b.out.encLens, b.out.sum = b.out.encLens[:0], 0
	b.keys, b.err, b.panicked = b.keys[:0], nil, nil
	f.cur, f.from, f.limit = b, from, limit
	if f.oc.job.Fresh == nil {
		return sim.Do(f.inline)
	}
	return f.oc.rt.startWorkOn(p, f.onWorker)
}

// stage finishes keys from f.from on into f.cur through wj's Fold — the
// task's own when wj is the job itself — until the batch is full, a key
// fails or the keys run out.
func (f *finalizer) stage(wj *Job) {
	f.fin = f.fold
	if wj != f.oc.job {
		f.fin = wj.Fold()
	}
	f.cur.next = f.keys.Walk(f.from, f.visit)
	f.cur.file = f.file
}

// stageKey finishes one key into the current batch and reports whether the
// batch takes another.
func (f *finalizer) stageKey(key, state []byte) bool {
	b := f.cur
	values := f.finish(b, key, state)
	b.keys = append(b.keys, stagedKey{pairs: len(b.out.encLens), values: values, state: len(state)})
	return b.err == nil && b.panicked == nil && len(b.keys) < f.limit && len(b.out.encLens) < finalizeBatchPairs
}

// finish runs one key's Finish, keeping its error, or what it panicked
// with, for the replay to raise.
func (f *finalizer) finish(b *finalBatch, key, state []byte) (values int) {
	defer func() {
		if r := recover(); r != nil {
			b.panicked = r
		}
	}()
	values, b.err = f.fin.Finish(key, state, f.emit)
	return values
}

// replay emits batch b's pairs from reducer r and charges its keys, as one
// Emit per pair and one Compute per key after its pairs would: the pairs'
// checksum terms are added as one sum, as Replay adds them, and the kept
// writer's buffer grows over b.file a pair at a time, as Emit grows it.
// Bytes past the buffer may be a later batch's, which its closure is
// encoding; the writer commits only what the buffer holds.
func (oc *OutputCollector) replay(p *sim.Proc, r, nodeID int, b *finalBatch, cost KeyCost) {
	oc.res.OutputChecksum += b.out.sum
	node := oc.rt.Cluster.Node(nodeID)
	var w *dfsWriterRef
	pair := 0
	for i, k := range b.keys {
		for ; pair < k.pairs; pair++ {
			n := int(b.out.encLens[pair])
			if w == nil {
				w = oc.writer(r, nodeID)
			}
			if w.commit != nil {
				w.buf = b.file[:len(w.buf)+n]
			}
			oc.emitted(p, r, nodeID, w, n, 0)
		}
		if i == len(b.keys)-1 {
			if b.err != nil {
				oc.rt.Fail(p, &TaskError{Job: oc.job.Name, Kind: "reduce", Task: r, Err: b.err})
			}
			if b.panicked != nil {
				panic(b.panicked)
			}
		}
		node.Compute(p, cost.of(k.values, k.state), PhaseReduce)
	}
}
