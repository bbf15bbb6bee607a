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

// --- Hybrid Hash (§V reduce technique 1) ---------------------------------
//
// Blocking but sort-free: arriving pairs hash into K buckets; buckets stay
// resident until the budget forces the largest one to demote to disk, after
// which its traffic streams straight to its file. Finalization emits the
// resident buckets and externally hashes the demoted ones.

type hybridReducer struct {
	rc     *reduceCtx
	tables []*stateTable // nil = demoted
	spill  *spillSet
}

func newHybridReducer(rc *reduceCtx) *hybridReducer {
	h := &hybridReducer{
		rc:     rc,
		tables: make([]*stateTable, rc.opts.SpillBuckets),
		spill:  newSpillSet(rc, 0, fmt.Sprintf("%s/red-%04d/hybrid", rc.job.Name, rc.r)),
	}
	// The bucket tables share one arena. A demoted bucket's key bytes stay
	// in it until the reducer finishes (budgets read live bytes, not arena
	// footprint); its states' regions go back to the arena as they are
	// spilled, for the buckets still resident to grow into.
	arena := memtable.NewArena(0)
	for b := range h.tables {
		h.tables[b] = newStateTable(rc.hashAt(1), arena, rc.fold)
	}
	return h
}

func (h *hybridReducer) used() int64 {
	var t int64
	for _, tb := range h.tables {
		if tb != nil {
			t += tb.usedBytes()
		}
	}
	return t
}

func (h *hybridReducer) demoteLargest(p *sim.Proc) bool {
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
	tb.iterate(func(k, s []byte) bool {
		h.spill.add(p, largest, k, s, formState)
		tb.remove(k)
		return true
	})
	h.tables[largest] = nil
	return true
}

// allResident reports whether no bucket has demoted yet — the condition
// under which ingest is pure folding with no spill I/O.
func (h *hybridReducer) allResident() bool {
	for _, tb := range h.tables {
		if tb == nil {
			return false
		}
	}
	return true
}

func (h *hybridReducer) ingest(p *sim.Proc, chunk []byte) {
	h.rc.join()
	if h.allResident() {
		// Every bucket is resident, so the decode+fold loop touches only
		// this reducer's tables — pure data work that rides the pool. The
		// gate depends only on demotion state, which evolves identically
		// with and without workers.
		n, bytes := engine.CountChunk(chunk)
		h.rc.foldChunk(p, n, bytes, func() {
			engine.DecodePairs(chunk, func(key, val []byte) {
				h.tables[h.spill.bucketOf(key)].fold(key, val, formIncoming)
			})
		})
	} else {
		// A demoted bucket streams its traffic straight to disk: virtual
		// I/O mid-loop, so this path stays inline.
		var bytes int64
		n := engine.DecodePairs(chunk, func(key, val []byte) {
			b := h.spill.bucketOf(key)
			bytes += int64(len(key) + len(val))
			if tb := h.tables[b]; tb != nil {
				tb.fold(key, val, formIncoming)
			} else {
				h.spill.add(p, b, key, val, formIncoming)
			}
		})
		h.rc.chargeFold(p, n, bytes)
	}
	for h.used() > h.rc.budget {
		if !h.demoteLargest(p) {
			break
		}
	}
}

func (h *hybridReducer) finalize(p *sim.Proc) {
	final := func(k, s []byte) { h.rc.emitFinal(p, k, s) }
	for b, tb := range h.tables {
		if tb != nil {
			tb.iterate(func(k, s []byte) bool {
				final(k, s)
				return true
			})
			continue
		}
		h.spill.processBucket(p, b, nil, final)
	}
}

// --- Incremental hash (§V reduce technique 2) -----------------------------
//
// One state per key, updated as each value arrives. When everything fits,
// answers are emitted the instant the last input arrives — no merge phase
// at all. Under memory pressure, whole hash buckets of states are evicted
// to disk and reconciled at the end.

type incReducer struct {
	rc    *reduceCtx
	st    *stateTable
	spill *spillSet
	// emitted is the set of keys whose threshold answer has gone out; built
	// on the first one. It outlives evictions, which st's entries do not.
	emitted    *memtable.Table
	nextVictim int
	pairsSeen  int
}

func newIncReducer(rc *reduceCtx) *incReducer {
	return &incReducer{
		rc:    rc,
		st:    newStateTable(rc.hashAt(1), memtable.NewArena(0), rc.fold),
		spill: newSpillSet(rc, 0, fmt.Sprintf("%s/red-%04d/inc", rc.job.Name, rc.r)),
	}
}

func (ir *incReducer) evictBucket(p *sim.Proc) {
	// Round-robin over buckets until one actually holds keys.
	for tries := 0; tries < ir.rc.opts.SpillBuckets; tries++ {
		b := ir.nextVictim % ir.rc.opts.SpillBuckets
		ir.nextVictim++
		var victims [][2][]byte
		ir.st.iterate(func(k, s []byte) bool {
			if ir.spill.bucketOf(k) == b {
				victims = append(victims, [2][]byte{k, s})
			}
			return true
		})
		if len(victims) == 0 {
			continue
		}
		for _, v := range victims {
			ir.spill.add(p, b, v[0], v[1], formState)
			ir.st.remove(v[0])
		}
		return
	}
}

func (ir *incReducer) ingest(p *sim.Proc, chunk []byte) {
	ir.rc.join()
	if ir.rc.job.EmitWhen == nil {
		// Without threshold emission the loop is pure folding, so it rides
		// the pool; budget-driven evictions move to one post-chunk sweep —
		// the same point in both modes, so serial and parallel runs evict
		// the same states at the same virtual instants.
		n, bytes := engine.CountChunk(chunk)
		ir.rc.foldChunk(p, n, bytes, func() {
			engine.DecodePairs(chunk, func(key, val []byte) {
				ir.st.fold(key, val, formIncoming)
			})
		})
		ir.pairsSeen += n
		for ir.st.usedBytes() > ir.rc.budget && ir.st.len() > 0 {
			ir.evictBucket(p)
		}
		return
	}
	// Threshold emission reads each key's state the instant it folds and
	// may emit output mid-loop — virtual effects that keep this path
	// inline.
	var bytes int64
	early := 0
	n := engine.DecodePairs(chunk, func(key, val []byte) {
		ir.st.fold(key, val, formIncoming)
		bytes += int64(len(key) + len(val))
		if s, ok := ir.st.get(key); ok && ir.rc.job.EmitWhen(key, s) {
			if ir.emitted == nil {
				ir.emitted = memtable.NewTable(ir.rc.hashAt(1), memtable.NewArena(0), tableSlots)
			}
			if _, first := ir.emitted.Slot(key); first {
				// Incremental processing: the answer leaves the system
				// the moment its condition is met (§IV point 3). The emit
				// may suspend this process mid-answer while the other
				// arrival path folds into the table, and a fold may hand
				// the state's region to another key: finish a copy.
				ir.rc.emitFinal(p, key, append([]byte(nil), s...))
				early++
			}
		}
		ir.pairsSeen++
		if ir.pairsSeen%256 == 0 {
			for ir.st.usedBytes() > ir.rc.budget && ir.st.len() > 0 {
				ir.evictBucket(p)
			}
		}
	})
	ir.rc.chargeFold(p, n, bytes)
	if early > 0 {
		// One progress point per chunk with threshold emits, not per pair,
		// to bound the series.
		ir.rc.noteProgress(p, ir.rc.oc.OutputPairs())
		if ir.rc.rt.Tracing() {
			ir.rc.rt.Emit(trace.EarlyAnswer, "threshold-emit", ir.rc.node.ID, ir.rc.r, 0,
				trace.Num("pairs", float64(early)))
		}
	}
}

func (ir *incReducer) finalize(p *sim.Proc) {
	finalizeWithSpill(p, ir.rc, ir.st, ir.spill)
}

// finalizeWithSpill emits every key exactly once: buckets with spilled data
// are externally hashed with their resident states folded in; untouched
// buckets emit straight from memory (the zero-I/O fast path).
func finalizeWithSpill(p *sim.Proc, rc *reduceCtx, st *stateTable, spill *spillSet) {
	final := func(k, s []byte) { rc.emitFinal(p, k, s) }
	if !spill.anySpilled() {
		st.iterate(func(k, s []byte) bool {
			final(k, s)
			return true
		})
		return
	}
	// Group resident states by bucket.
	residents := make([][]entry, rc.opts.SpillBuckets)
	st.iterate(func(k, s []byte) bool {
		b := spill.bucketOf(k)
		residents[b] = append(residents[b], entry{key: k, payload: s, f: formState})
		return true
	})
	for b := 0; b < rc.opts.SpillBuckets; b++ {
		if !spill.hasData(b) {
			for _, e := range residents[b] {
				final(e.key, e.payload)
			}
			continue
		}
		spill.processBucket(p, b, residents[b], final)
	}
}

// --- Hot-key incremental hash (§V reduce technique 3) ---------------------
//
// A SpaceSaving sketch watches the key stream; states of keys the sketch
// considers frequent stay pinned in memory, everything else goes to cold
// bucket files. Because per-key state is sublinear in the values folded
// into it, keeping the *hot* keys resident minimizes spill I/O — and their
// (approximate) answers can be emitted as soon as all input has arrived.

type hotReducer struct {
	rc        *reduceCtx
	st        *stateTable
	sk        *sketch.SpaceSaving
	spill     *spillSet
	pairsSeen int
}

func newHotReducer(rc *reduceCtx) *hotReducer {
	return &hotReducer{
		rc:    rc,
		st:    newStateTable(rc.hashAt(1), memtable.NewArena(0), rc.fold),
		sk:    sketch.NewSpaceSaving(rc.opts.HotKeyCounters),
		spill: newSpillSet(rc, 0, fmt.Sprintf("%s/red-%04d/hot", rc.job.Name, rc.r)),
	}
}

// hotThreshold computes the minimum estimated frequency a key must have to
// deserve residency: memory holds roughly budget/avgKeyCost keys, so a key
// is "important" when its share of the stream exceeds 1/capacity — hotness
// is relative to the memory actually available, not to the sketch size.
func (hr *hotReducer) hotThreshold() uint64 {
	n := hr.st.len()
	if n == 0 {
		return 0
	}
	avg := hr.st.usedBytes() / int64(n)
	if avg <= 0 {
		avg = 1
	}
	capacity := hr.rc.budget / avg
	if capacity < 1 {
		capacity = 1
	}
	return hr.sk.N() / uint64(capacity)
}

// sweepCold evicts coldest-first — keys the sketch does not track, then
// tracked keys below the residency threshold, then (as a progress
// guarantee) anything — stopping as soon as the table is comfortably under
// budget. Evictions write *states* (sublinear in the values folded into
// them) to the spill buckets.
func (hr *hotReducer) sweepCold(p *sim.Proc) {
	target := hr.rc.budget * 9 / 10 // hysteresis: leave headroom for arrivals
	thresh := hr.hotThreshold()
	evicted := 0
	pass := func(victim func(k []byte) bool) {
		if hr.st.usedBytes() <= target {
			return
		}
		var victims [][2][]byte
		hr.st.iterate(func(k, s []byte) bool {
			if victim(k) {
				victims = append(victims, [2][]byte{k, s})
			}
			return true
		})
		for _, v := range victims {
			hr.spill.add(p, hr.spill.bucketOf(v[0]), v[0], v[1], formState)
			hr.st.remove(v[0])
			evicted++
			if hr.st.usedBytes() <= target {
				return
			}
		}
	}
	pass(func(k []byte) bool { _, _, tracked := hr.sk.Estimate(k); return !tracked })
	pass(func(k []byte) bool { est, _, tracked := hr.sk.Estimate(k); return tracked && est < thresh })
	pass(func(k []byte) bool { return true })
	hr.rc.rt.Counters.Add("core.hotkey.evictions", float64(evicted))
	if hr.rc.rt.Tracing() {
		hr.rc.rt.Emit(trace.HotKeyEvict, "sweep-cold", hr.rc.node.ID, hr.rc.r, 0,
			trace.Num("evicted", float64(evicted)),
			trace.Num("residentKeys", float64(hr.st.len())))
	}
}

func (hr *hotReducer) ingest(p *sim.Proc, chunk []byte) {
	hr.rc.join()
	// Always fold: resident keys absorb their entire value stream with
	// zero I/O, which is where the win comes from. When the table outgrows
	// its budget, the sweep sheds the *coldest* states — so hot keys stay
	// pinned and cold keys pay one small state write instead of raw-record
	// spills. The sketch offers and folds are pure data work, so they ride
	// the pool; the cold sweep (spill I/O) runs as one post-chunk pass at
	// the same point in both modes.
	n, bytes := engine.CountChunk(chunk)
	hr.rc.foldChunk(p, n, bytes, func() {
		engine.DecodePairs(chunk, func(key, val []byte) {
			hr.sk.Offer(key, 1)
			hr.st.fold(key, val, formIncoming)
		})
	})
	hr.pairsSeen += n
	if hr.st.usedBytes() > hr.rc.budget {
		hr.sweepCold(p)
	}
}

func (hr *hotReducer) finalize(p *sim.Proc) {
	if hr.rc.opts.ApproximateEarly && hr.st.len() > 0 {
		// Early, possibly-approximate answers for the hot keys, available
		// the instant the input finishes arriving — before any cold-data
		// reconciliation I/O.
		path := fmt.Sprintf("%s/early/part-r-%05d", hr.rc.job.OutputPath, hr.rc.r)
		w, err := hr.rc.rt.DFS.CreateWriter(path, hr.rc.node.ID, hr.rc.job.DiscardOutput)
		if err != nil {
			panic(fmt.Sprintf("core: early output: %v", err))
		}
		pairs := 0
		var buf []byte
		hr.st.iterate(func(k, s []byte) bool {
			hr.rc.finish(k, s, func(kk, vv []byte) {
				buf = kv.AppendPair(buf, kk, vv)
				pairs++
			})
			return true
		})
		if len(buf) > 0 {
			w.Append(p, buf)
		}
		hr.rc.oc.NoteSnapshot(p.Now(), 1.0, pairs)
		hr.rc.rt.Counters.Add("core.hotkey.early.pairs", float64(pairs))
		// The early-answer coverage point: hot-key pairs available now, vs
		// the exact answer still behind the cold-data reconciliation below.
		hr.rc.noteProgress(p, hr.rc.oc.OutputPairs()+pairs)
		if hr.rc.rt.Tracing() {
			hr.rc.rt.Emit(trace.EarlyAnswer, "approximate-early", hr.rc.node.ID, hr.rc.r, 0,
				trace.Num("pairs", float64(pairs)),
				trace.Num("spilledBytes", float64(hr.spill.Bytes)))
		}
	}
	finalizeWithSpill(p, hr.rc, hr.st, hr.spill)
	// Completion point: exact pairs out, final spill volume.
	hr.rc.noteProgress(p, hr.rc.oc.OutputPairs())
}
