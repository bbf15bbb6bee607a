package engine

import (
	"fmt"
	"slices"

	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// OutputCollector funnels reducer emits into DFS part files and the Result,
// recording first-output latency — the observable that distinguishes
// incremental engines from blocking ones.
type OutputCollector struct {
	rt  *Runtime
	job *Job
	res *Result
	// serializeNs is the job's resolved per-byte serialize cost: every emit
	// charges it, so it is merged with the defaults once, not per pair.
	serializeNs float64
	writers     []*dfsWriterRef // by reducer
	// retained is every emitted pair, encoded, in emission order, when the
	// job retains its output; Materialize turns it into Result.Output once.
	retained []byte

	// NewSink, when set, replaces the DFS writer for each partition of kept
	// output: the returned append function receives every flushed
	// write-behind buffer. The resident engine uses it to land reduce output
	// in memory (then publishes it via dfs.RegisterResident) while keeping
	// the checksum, serialize charges, retained output, and counters
	// identical to the disk path. It is never called for discarded output,
	// which then lands nowhere and costs no I/O.
	NewSink func(r, nodeID int) func(p *sim.Proc, data []byte)
}

// dfsWriterRef is one reducer's write-behind state. Kept output is encoded
// into buf and handed to append at each flush; discarded output is never
// encoded — pending counts its bytes and appendSize, when the output has a
// file to charge, takes the count.
type dfsWriterRef struct {
	append     func(p *sim.Proc, data []byte)
	appendSize func(p *sim.Proc, n int64)
	buf        []byte
	// pending is the encoded size of the pairs since the last flush, whether
	// or not buf holds them.
	pending int
}

// outputFlushBytes is the per-reducer write-behind buffer for job output —
// emits stream into memory and hit the DFS in large sequential appends.
const outputFlushBytes = 128 << 10

// unitCap is what a write-behind unit's doubling stops at: a unit seals at
// the first pair boundary at or past outputFlushBytes, so the eighth on top
// is room for the sealing pair (a larger one grows the unit to fit exactly).
const unitCap = outputFlushBytes + outputFlushBytes/8

// NewOutputCollector returns a collector for job writing under
// job.OutputPath (part-r-N per reducer).
func (rt *Runtime) NewOutputCollector(job *Job, res *Result) *OutputCollector {
	return &OutputCollector{rt: rt, job: job, res: res,
		serializeNs: job.Costs.Merged().SerializeNsPerByte,
		writers:     make([]*dfsWriterRef, job.Reducers)}
}

// writer returns reducer r's write-behind state, opening its part file (or
// sink) on first use.
func (oc *OutputCollector) writer(r, nodeID int) *dfsWriterRef {
	w := oc.writers[r]
	if w == nil {
		w = &dfsWriterRef{}
		switch {
		case oc.NewSink == nil:
			path := fmt.Sprintf("%s/part-r-%05d", oc.job.OutputPath, r)
			dw, err := oc.rt.DFS.CreateWriter(path, nodeID, oc.job.DiscardOutput)
			if err != nil {
				panic(fmt.Sprintf("engine: creating output %s: %v", path, err))
			}
			if oc.job.DiscardOutput {
				w.appendSize = dw.AppendSize
			} else {
				w.append = dw.Append
			}
		case !oc.job.DiscardOutput:
			w.append = oc.NewSink(r, nodeID)
		}
		oc.writers[r] = w
	}
	return w
}

// Emit writes one output pair from reducer r running on node.
func (oc *OutputCollector) Emit(p *sim.Proc, r int, nodeID int, key, val []byte) {
	w := oc.writer(r, nodeID)
	// Consume key and val completely before the first blocking call: callers
	// pass scratch buffers that other processes may overwrite while this one
	// is suspended inside Compute or a DFS append. Kept output is encoded
	// straight into the write-behind buffer (dfs.Writer.Append copies, so the
	// buffer is reused across flushes), and the checksum is staged now.
	if w.append != nil {
		w.buf = kv.AppendPair(w.buf, key, val)
	}
	if oc.job.RetainOutput {
		oc.retained = kv.AppendPair(oc.retained, key, val)
	}
	oc.emitted(p, r, nodeID, w, kv.EncodedSize(key, val), pairHash(key, val))
}

// emitted accounts one output pair of encLen encoded bytes, already in
// w.buf if the output is kept: the serialize charge, the write-behind flush
// once the pending bytes reach outputFlushBytes, and the checksum applied
// after the charge to keep event ordering identical.
func (oc *OutputCollector) emitted(p *sim.Proc, r, nodeID int, w *dfsWriterRef, encLen int, sum uint64) {
	node := oc.rt.Cluster.Node(nodeID)
	node.Compute(p, Dur(float64(encLen), oc.serializeNs), PhaseReduce)
	if w.pending += encLen; w.pending >= outputFlushBytes {
		w.flush(p)
	}

	if oc.res.OutputPairs == 0 {
		oc.res.FirstOutputAt = p.Now()
		oc.rt.Emit(trace.FirstOutput, "first-output", nodeID, r, 0)
	}
	oc.res.OutputPairs++
	oc.res.OutputBytes += int64(encLen)
	// Summing per-pair hashes keeps the digest independent of emission
	// order (reducers finish in nondeterministic-looking but seeded order)
	// while still catching a duplicated or missing pair.
	oc.res.OutputChecksum += sum
}

// flush hands the pending bytes to the part file or sink: kept output as
// its encoded buffer, discarded output as a size.
func (w *dfsWriterRef) flush(p *sim.Proc) {
	switch {
	case w.append != nil:
		w.append(p, w.buf)
		w.buf = w.buf[:0]
	case w.appendSize != nil:
		w.appendSize(p, int64(w.pending))
	}
	w.pending = 0
}

// Staged is one reducer's whole output, built by the pooled closure that
// reduced it and replayed by the collector after the join. Output that is
// kept is encoded once, already cut into the write-behind units Emit would
// have flushed: a unit seals at the first pair boundary at or past
// outputFlushBytes, and Replay hands the units to the writer uncopied.
// Output nobody reads stages only each pair's size and checksum term. One
// closure builds it through Add; after the join it is read-only.
type Staged struct {
	sized bool     // no units: the collector never encodes this output
	units [][]byte // sealed units, then the open one
	pairs []stagedPair
}

// stagedPair is what Replay needs of a pair without decoding it.
type stagedPair struct {
	encLen int
	sum    uint64
}

// Stage returns an empty Staged for this collector's output: sized when
// the output is discarded and not retained, so no pair is encoded.
func (oc *OutputCollector) Stage() Staged {
	return Staged{sized: oc.job.DiscardOutput && !oc.job.RetainOutput}
}

// Add stages one output pair; it is an Emit for reduce functions.
func (s *Staged) Add(key, val []byte) {
	encLen := kv.EncodedSize(key, val)
	if !s.sized {
		last := len(s.units) - 1
		if last < 0 || len(s.units[last]) >= outputFlushBytes {
			// A reducer that filled one unit opens the next at full size.
			var next []byte
			if last >= 0 {
				next = make([]byte, 0, unitCap)
			}
			s.units = append(s.units, next)
			last++
		}
		s.units[last] = kv.AppendPair(growUnit(s.units[last], encLen), key, val)
	}
	if len(s.pairs) == cap(s.pairs) {
		s.pairs = slices.Grow(s.pairs, len(s.pairs)+1) // double, as kv.Grouper does
	}
	s.pairs = append(s.pairs, stagedPair{encLen, pairHash(key, val)})
}

// growUnit returns buf with room for n more bytes. A write-behind buffer is
// sized by the data: it doubles from 4 KB up to unitCap, then grows to
// exactly what the pair that seals it needs.
func growUnit(buf []byte, n int) []byte {
	need := len(buf) + n
	if need <= cap(buf) {
		return buf
	}
	size := max(need, min(max(2*cap(buf), 4<<10), unitCap))
	return append(make([]byte, 0, size), buf...)
}

// Replay emits every staged pair from reducer r running on node: the same
// per-pair charge, flush, first-output and checksum steps as one Emit per
// pair, in the same order. Kept output's buffer is a window over the staged
// unit instead of a second encoding; a sized Staged replays sizes alone.
// Reducer r must have nothing buffered.
func (oc *OutputCollector) Replay(p *sim.Proc, r int, nodeID int, s *Staged) {
	if len(s.pairs) == 0 {
		return
	}
	w := oc.writer(r, nodeID)
	if w.pending != 0 {
		panic("engine: Replay over a reducer with buffered output")
	}
	if s.sized {
		if w.append != nil || oc.job.RetainOutput {
			panic("engine: Replay of sizes into output that keeps its bytes")
		}
		for _, sp := range s.pairs {
			oc.emitted(p, r, nodeID, w, sp.encLen, sp.sum)
		}
		return
	}
	pairs := s.pairs
	for _, unit := range s.units {
		for off := 0; off < len(unit); pairs = pairs[1:] {
			start := off
			off += pairs[0].encLen
			if w.append != nil {
				w.buf = unit[:off]
			}
			if oc.job.RetainOutput {
				oc.retained = append(oc.retained, unit[start:off]...)
			}
			oc.emitted(p, r, nodeID, w, pairs[0].encLen, pairs[0].sum)
		}
	}
}

// Materialize completes the Result once, when the job is done. It posts the
// job's output bytes to the CtrOutputBytes counter — one addition of the sum
// Emit kept in the Result, which is the value per-pair additions reach, since
// integers this size add exactly in any grouping — and builds Result.Output
// from the retained pairs: one string holds every pair's bytes, keys and
// values are substrings of it, and the map is sized up front. A key emitted
// twice keeps its later value.
func (oc *OutputCollector) Materialize() {
	if oc.res.OutputBytes > 0 {
		oc.rt.Counters.Add(CtrOutputBytes, float64(oc.res.OutputBytes))
	}
	if !oc.job.RetainOutput {
		return
	}
	slab := string(oc.retained)
	out := make(map[string]string, oc.res.OutputPairs)
	for off := 0; off < len(slab); {
		key, val, n := kv.DecodePair(oc.retained[off:])
		off += n
		valAt := off - len(val)
		out[slab[valAt-len(key):valAt]] = slab[valAt:off]
	}
	oc.res.Output = out
	oc.retained = nil
}

// Close flushes reducer r's buffered output; every engine's reduce task
// calls it once after its last emit.
func (oc *OutputCollector) Close(p *sim.Proc, r int) {
	if w := oc.writers[r]; w != nil && w.pending > 0 {
		w.flush(p)
	}
}

// NoteSnapshot records an early-answer snapshot on the result.
func (oc *OutputCollector) NoteSnapshot(at sim.Time, fraction float64, pairs int) {
	oc.res.Snapshots = append(oc.res.Snapshots, Snapshot{At: at, Fraction: fraction, Pairs: pairs})
}

// NoteProgress appends one progress-vs-accuracy point. Pairs and
// SpilledBytes are cumulative; engines batch calls (per emission burst, not
// per pair) to bound the series.
func (oc *OutputCollector) NoteProgress(at sim.Time, mapFraction float64, pairs int, spilledBytes int64) {
	oc.res.Progress = append(oc.res.Progress, ProgressPoint{
		At: at, MapFraction: mapFraction, Pairs: pairs, SpilledBytes: spilledBytes,
	})
}

// OutputPairs returns the pairs emitted so far.
func (oc *OutputCollector) OutputPairs() int { return oc.res.OutputPairs }

// pairHash digests one key/value pair with FNV-1a, with a separator so
// ("ab","c") and ("a","bc") differ.
func pairHash(key, val []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	h ^= 0xff
	h *= prime
	for _, b := range val {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
