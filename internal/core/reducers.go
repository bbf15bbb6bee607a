package core

import (
	"fmt"

	"onepass/internal/engine"
	"onepass/internal/kv"
	"onepass/internal/memtable"
	"onepass/internal/sim"
	"onepass/internal/sketch"
	"onepass/internal/trace"
)

// hashReducer is the reduce side of all three §V hash techniques. Each keeps
// one state per key, spills states under memory pressure and merges the
// spilled partials at the end (Monoidify!: a state is a monoid element and
// eviction writes a partial). The mode picks only which states are evicted
// and when answers may leave early:
//
//   - HybridHash (technique 1) holds one table per spill bucket. The budget
//     demotes the largest bucket to disk, and its later traffic streams raw
//     to its file. Blocking: every answer waits for the last input.
//   - Incremental (technique 2) holds one table and evicts whole buckets
//     round-robin. With Job.EmitWhen an answer leaves the moment its
//     condition holds.
//   - HotKey (technique 3) is Incremental with a SpaceSaving sketch over the
//     key stream: eviction sheds the coldest states, so the frequent keys
//     stay resident and can answer approximately as soon as input ends.
//
// The push process and the puller share a reducer, and either may suspend
// (a CPU charge, a spill write, an emit) while the other runs. So no bucket
// buffer and no victim state is held across a suspension: an eviction
// collects victim keys, reads each state at the moment it spills it, and a
// flush takes its buffer out of the spill set while it writes.
type hashReducer struct {
	rc   *reduceCtx
	mode Mode
	// tables has one entry per spill bucket under HybridHash (nil once the
	// bucket is demoted) and one entry otherwise.
	tables  []*stateTable
	demoted int
	spill   *spillSet
	// sk watches the key stream under HotKey; nil otherwise.
	sk *sketch.SpaceSaving
	// threshold is true for Incremental with Job.EmitWhen. emitted is the
	// set of keys whose threshold answer has gone out, built on the first
	// one; it outlives evictions, which the table's entries do not.
	threshold  bool
	emitted    *memtable.Table
	pairsSeen  int
	nextVictim int
	// victims is spillWhere's key scratch. A sweep takes it and puts it back
	// when done, so a sweep started while another is suspended gets its own.
	victims [][]byte
	// foldChunk is the pooled decode+fold of chunk, built once per task.
	// ingest sets chunk after joining the previous fold and before
	// dispatching this one; nothing else writes it.
	chunk     []byte
	foldChunk func()
}

func newHashReducer(rc *reduceCtx, mode Mode) *hashReducer {
	var name string
	tables := 1
	switch mode {
	case HybridHash:
		name, tables = "hybrid", rc.opts.SpillBuckets
	case Incremental:
		name = "inc"
	case HotKey:
		name = "hot"
	default:
		panic(fmt.Sprintf("core: unknown mode %v", mode))
	}
	h := &hashReducer{
		rc:        rc,
		mode:      mode,
		tables:    make([]*stateTable, tables),
		spill:     newSpillSet(rc, 0, fmt.Sprintf("%s/red-%04d/%s", rc.job.Name, rc.r, name)),
		threshold: mode == Incremental && rc.job.EmitWhen != nil,
	}
	// The tables share one arena. A demoted bucket's key bytes stay in it
	// until the reducer finishes (budgets read live bytes, not arena
	// footprint); spilled states' regions go back to the arena for the
	// resident ones to grow into.
	arena := memtable.NewArena(0)
	for b := range h.tables {
		h.tables[b] = newStateTable(rc.hashAt(1), arena, rc.fold)
	}
	if mode == HotKey {
		h.sk = sketch.NewSpaceSaving(rc.opts.HotKeyCounters)
	}
	add := func(key, val []byte) {
		if h.sk != nil {
			h.sk.Offer(key, 1)
		}
		h.tables[h.bucketOf(key)].fold(key, val, formIncoming)
	}
	h.foldChunk = func() { engine.DecodePairs(h.chunk, add) }
	return h
}

// bucketOf is key's table index: its spill bucket when there is a table per
// bucket, else 0 without hashing.
func (h *hashReducer) bucketOf(key []byte) int {
	if len(h.tables) == 1 {
		return 0
	}
	return h.spill.bucketOf(key)
}

func (h *hashReducer) used() int64 {
	var t int64
	for _, tb := range h.tables {
		if tb != nil {
			t += tb.usedBytes()
		}
	}
	return t
}

// ingest folds one arriving chunk of encoded (key, value) pairs, then evicts
// until the tables fit the budget.
func (h *hashReducer) ingest(p *sim.Proc, chunk []byte) {
	h.rc.join()
	if !h.threshold && h.demoted == 0 {
		// Pure folding (and sketch offers) into this reducer's own tables:
		// data work that rides the pool. Evictions run after the chunk, at
		// the same point in both modes, so serial and parallel runs evict
		// the same states at the same virtual instants.
		n, bytes := engine.CountChunk(chunk)
		h.chunk = chunk
		h.rc.foldChunk(p, n, bytes, h.foldChunk)
	} else {
		// A demoted bucket's traffic streams to disk, and a threshold emit
		// reads each state the instant it folds and may emit mid-loop:
		// virtual effects that keep this path inline.
		var bytes int64
		early := 0
		n := engine.DecodePairs(chunk, func(key, val []byte) {
			bytes += int64(len(key) + len(val))
			b := h.bucketOf(key)
			tb := h.tables[b]
			if tb == nil {
				h.spill.add(p, b, key, val, formIncoming)
				return
			}
			tb.fold(key, val, formIncoming)
			if h.threshold {
				if h.emitEarly(p, tb, key) {
					early++
				}
				if h.pairsSeen++; h.pairsSeen%256 == 0 {
					for h.used() > h.rc.budget && h.evict(p) {
					}
				}
			}
		})
		h.rc.chargeFold(p, n, bytes)
		if early > 0 {
			// One progress point per chunk with threshold emits, not per
			// pair, to bound the series.
			h.rc.noteProgress(p, h.rc.oc.OutputPairs())
			if h.rc.rt.Tracing() {
				h.rc.rt.Emit(trace.EarlyAnswer, "threshold-emit", h.rc.node.ID, h.rc.r, 0,
					trace.Num("pairs", float64(early)))
			}
		}
		if h.threshold {
			return
		}
	}
	for h.used() > h.rc.budget && h.evict(p) {
	}
}

// emitEarly emits key's answer if Job.EmitWhen holds for its state and no
// answer for it has gone out yet, and reports whether it did.
func (h *hashReducer) emitEarly(p *sim.Proc, tb *stateTable, key []byte) bool {
	s, ok := tb.get(key)
	if !ok || !h.rc.job.EmitWhen(key, s) {
		return false
	}
	if h.emitted == nil {
		h.emitted = memtable.NewTable(h.rc.hashAt(1), memtable.NewArena(0), tableSlots)
	}
	if _, first := h.emitted.Slot(key); !first {
		return false
	}
	// Incremental processing: the answer leaves the system the moment its
	// condition is met (§IV point 3). The emit may suspend this process
	// mid-answer while the other arrival path folds into the table, and a
	// fold may hand the state's region to another key: finish a copy.
	h.rc.emitFinal(p, key, append([]byte(nil), s...))
	return true
}

// evict applies the mode's victim rule once and reports whether it spilled
// anything.
func (h *hashReducer) evict(p *sim.Proc) bool {
	switch h.mode {
	case HybridHash:
		// Demote the largest bucket. It is detached before it drains, so
		// traffic for it that arrives meanwhile streams to its file.
		largest, size := -1, int64(0)
		for b, tb := range h.tables {
			if tb != nil && tb.usedBytes() > size {
				largest, size = b, tb.usedBytes()
			}
		}
		if largest < 0 {
			return false
		}
		tb := h.tables[largest]
		h.tables[largest] = nil
		h.demoted++
		h.spillWhere(p, tb, func([]byte) bool { return true }, -1)
		return true
	case Incremental:
		// Round-robin over buckets until one actually holds keys.
		for tries := 0; tries < h.rc.opts.SpillBuckets; tries++ {
			b := h.nextVictim % h.rc.opts.SpillBuckets
			h.nextVictim++
			if h.spillWhere(p, h.tables[0], func(k []byte) bool { return h.spill.bucketOf(k) == b }, -1) > 0 {
				return true
			}
		}
		return false
	default:
		return h.sweepCold(p) > 0
	}
}

// hotThreshold computes the minimum estimated frequency a key must have to
// deserve residency: memory holds roughly budget/avgKeyCost keys, so a key
// is "important" when its share of the stream exceeds 1/capacity — hotness
// is relative to the memory actually available, not to the sketch size.
func (h *hashReducer) hotThreshold() uint64 {
	st := h.tables[0]
	n := st.len()
	if n == 0 {
		return 0
	}
	avg := max(st.usedBytes()/int64(n), 1)
	capacity := max(h.rc.budget/avg, 1)
	return h.sk.N() / uint64(capacity)
}

// sweepCold evicts coldest-first — keys the sketch does not track, then
// tracked keys below the residency threshold, then (as a progress
// guarantee) anything — stopping as soon as the table is comfortably under
// budget. Evictions write *states* (sublinear in the values folded into
// them) to the spill buckets. It returns the number of states evicted.
func (h *hashReducer) sweepCold(p *sim.Proc) int {
	st := h.tables[0]
	target := h.rc.budget * 9 / 10 // hysteresis: leave headroom for arrivals
	thresh := h.hotThreshold()
	evicted := h.spillWhere(p, st, func(k []byte) bool { _, _, tracked := h.sk.Estimate(k); return !tracked }, target)
	evicted += h.spillWhere(p, st, func(k []byte) bool { est, _, tracked := h.sk.Estimate(k); return tracked && est < thresh }, target)
	evicted += h.spillWhere(p, st, func([]byte) bool { return true }, target)
	h.rc.rt.Counters.Add("core.hotkey.evictions", float64(evicted))
	if h.rc.rt.Tracing() {
		h.rc.rt.Emit(trace.HotKeyEvict, "sweep-cold", h.rc.node.ID, h.rc.r, 0,
			trace.Num("evicted", float64(evicted)),
			trace.Num("residentKeys", float64(st.len())))
	}
	return evicted
}

// spillWhere is the one eviction primitive. It collects tb's victim keys in
// slot order, then spills them one at a time until tb is at most target
// bytes (target < 0: every victim): it reads the key's state now — the
// other arrival path may have folded into it or spilled it while this one
// was suspended — copies it into its bucket buffer, removes the key, and
// only then flushes a full buffer. Key bytes outlive the removal (the arena
// keeps them); states do not. It returns the number of states spilled.
func (h *hashReducer) spillWhere(p *sim.Proc, tb *stateTable, victim func(key []byte) bool, target int64) int {
	if tb.usedBytes() <= target {
		return 0
	}
	keys := h.victims[:0]
	h.victims = nil
	tb.iterate(func(k, _ []byte) bool {
		if victim(k) {
			keys = append(keys, k)
		}
		return true
	})
	spilled := 0
	for _, k := range keys {
		s, ok := tb.get(k)
		if !ok {
			continue
		}
		b := h.spill.bucketOf(k)
		h.spill.put(b, k, s, formState)
		tb.remove(k)
		spilled++
		h.spill.flushFull(p, b)
		if tb.usedBytes() <= target {
			break
		}
	}
	h.victims = keys[:0]
	return spilled
}

// finalize emits every key exactly once, after the last chunk: with nothing
// spilled, straight from the tables in order (the zero-I/O fast path);
// otherwise buckets with spilled data are externally hashed with their
// resident states folded in, and the others emit from memory. Each run of
// keys finishes on the worker pool while the event loop charges the keys
// before it (reduceCtx.finalize); both arrival paths are done, so nothing
// folds into a table meanwhile.
func (h *hashReducer) finalize(p *sim.Proc) {
	if h.sk != nil && h.rc.opts.ApproximateEarly && h.tables[0].len() > 0 {
		h.emitApproximateEarly(p)
	}
	final := func(keys engine.KeyWalk) { h.rc.finalize(p, keys) }
	if !h.spill.anySpilled() {
		final((*tableWalk)(&h.tables)) // none demoted: a demotion spills
	} else {
		residents := make([][]entry, h.rc.opts.SpillBuckets)
		for _, tb := range h.tables {
			if tb == nil {
				continue
			}
			tb.iterate(func(k, s []byte) bool {
				b := h.spill.bucketOf(k)
				residents[b] = append(residents[b], entry{key: k, payload: s, f: formState})
				return true
			})
		}
		for b, res := range residents {
			if !h.spill.hasData(b) {
				final((*entryWalk)(&residents[b]))
				continue
			}
			h.spill.processBucket(p, b, res, final)
		}
	}
	if h.sk != nil {
		// Completion point: exact pairs out, final spill volume.
		h.rc.noteProgress(p, h.rc.oc.OutputPairs())
	}
}

// tableWalk walks a reducer's tables one after another, each in slot order:
// a cursor holds the table's number above bit 32 and the slot below it.
type tableWalk []*stateTable

func (w *tableWalk) Walk(from int, visit func(key, state []byte) bool) int {
	for t := from >> 32; t < len(*w); t++ {
		if next := (*w)[t].Walk(from&(1<<32-1), visit); next >= 0 {
			return t<<32 | next
		}
		from = 0
	}
	return -1
}

// entryWalk walks resident states in the order finalize collected them.
type entryWalk []entry

func (w *entryWalk) Walk(from int, visit func(key, state []byte) bool) int {
	for i := from; i < len(*w); i++ {
		if e := (*w)[i]; !visit(e.key, e.payload) {
			return i + 1
		}
	}
	return -1
}

// emitApproximateEarly writes the hot keys' early, possibly-approximate
// answers, available the instant the input finishes arriving — before any
// cold-data reconciliation I/O.
func (h *hashReducer) emitApproximateEarly(p *sim.Proc) {
	rc := h.rc
	path := fmt.Sprintf("%s/early/part-r-%05d", rc.job.OutputPath, rc.r)
	w, err := rc.rt.DFS.CreateWriter(path, rc.node.ID, rc.job.DiscardOutput)
	if err != nil {
		panic(fmt.Sprintf("core: early output: %v", err))
	}
	// Discarded early output is never encoded: only its size is written.
	pairs, size := 0, 0
	var buf []byte
	h.tables[0].iterate(func(k, s []byte) bool {
		rc.finish(p, k, s, func(kk, vv []byte) {
			if !rc.job.DiscardOutput {
				buf = kv.AppendPair(buf, kk, vv)
			}
			size += kv.EncodedSize(kk, vv)
			pairs++
		})
		return true
	})
	switch {
	case size == 0:
	case rc.job.DiscardOutput:
		w.AppendSize(p, int64(size))
	default:
		w.Commit(p, buf) // the file keeps the fresh buffer
	}
	rc.oc.NoteSnapshot(p.Now(), 1.0, pairs)
	rc.rt.Counters.Add("core.hotkey.early.pairs", float64(pairs))
	// The early-answer coverage point: hot-key pairs available now, vs the
	// exact answer still behind the cold-data reconciliation.
	rc.noteProgress(p, rc.oc.OutputPairs()+pairs)
	if rc.rt.Tracing() {
		rc.rt.Emit(trace.EarlyAnswer, "approximate-early", rc.node.ID, rc.r, 0,
			trace.Num("pairs", float64(pairs)),
			trace.Num("spilledBytes", float64(h.spill.Bytes)))
	}
}
