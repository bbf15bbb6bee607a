// Package sortmerge implements the disk-resident half of Hadoop's group-by:
// sorted run files on a scratch store, streaming readers over them, and the
// multi-pass merge that combines runs whenever their number reaches the
// fan-in F — the blocking, I/O-intensive operation the paper identifies as
// the central obstacle to one-pass analytics (§III.B.4).
package sortmerge

import (
	"fmt"

	"onepass/internal/disk"
	"onepass/internal/kv"
	"onepass/internal/sim"
)

// DefaultFanIn mirrors Hadoop's io.sort.factor default of 10.
const DefaultFanIn = 10

// Run is one sorted run file on a scratch store.
type Run struct {
	Store *disk.Store
	File  *disk.File
}

// Size returns the run's byte size.
func (r *Run) Size() int64 { return r.File.Size() }

// WriteRun persists encoded sorted pairs as a new run file, charging a
// sequential write. The file adopts encoded: a run's bytes are immutable
// from here on, every reader of the run aliases them, and the caller must
// not write through the slice again.
func WriteRun(p *sim.Proc, store *disk.Store, name string, encoded []byte) *Run {
	f := store.Create(name, false)
	if len(encoded) > 0 {
		store.Put(p, f, encoded)
	}
	return &Run{Store: store, File: f}
}

// Stream reads a run back as a kv.PairStream, charging a random read per
// buffer refill — the k-way merge access pattern on a spindle. The pairs it
// returns alias the file's bytes: the buffer is an accounting window over
// them, not a copy.
type Stream struct {
	p    *sim.Proc
	r    *disk.Reader
	file *disk.File
	// The file's bytes [off, end) have been charged and not yet decoded.
	off, end int
	key, val []byte
	valid    bool
	done     bool
}

// streamBuf is the per-run merge buffer size (Hadoop's io.file.buffer.size
// scaled up to merge usage).
const streamBuf = 256 << 10

// NewStream opens a run for streaming by process p.
func NewStream(p *sim.Proc, run *Run) *Stream {
	return &Stream{p: p, r: run.Store.NewReader(run.File, streamBuf), file: run.File}
}

// Peek implements kv.PairStream.
func (s *Stream) Peek() ([]byte, []byte, bool) {
	if s.valid {
		return s.key, s.val, true
	}
	if s.done {
		return nil, nil, false
	}
	for {
		// Data is re-read after every refill: a file still being appended may
		// have moved, and the bytes already handed out stay where they were.
		k, v, n := kv.DecodePair(s.file.Data()[s.off:s.end])
		if n > 0 {
			s.key, s.val = k, v
			s.off += n
			s.valid = true
			return s.key, s.val, true
		}
		chunk := s.r.Next(s.p, streamBuf)
		if chunk == nil {
			if s.off != s.end {
				panic("sortmerge: trailing partial record in run")
			}
			s.done = true
			return nil, nil, false
		}
		s.end += len(chunk)
	}
}

// Advance implements kv.PairStream.
func (s *Stream) Advance() { s.valid = false }

// Merger tracks a reducer's on-disk runs and performs multi-pass merging.
type Merger struct {
	FanIn  int
	store  *disk.Store
	prefix string
	runs   []*Run
	seq    int

	// Comparisons accumulates key comparisons across merge passes; BytesIn
	// and BytesOut accumulate merge I/O (the paper's 370 GB for a 256 GB
	// sessionization input lives here).
	Comparisons int64
	BytesIn     int64
	BytesOut    int64
	Passes      int

	// Charge, when set, is called by MergePass between dispatching the pure
	// merge work and joining it, with the pass's input byte volume. Virtual
	// time the owner charges here (serialization, say) overlaps the real
	// merge when the worker pool is enabled; a pass rewrites its inputs
	// verbatim, so inBytes is also the output size.
	Charge func(p *sim.Proc, inBytes int64)

	// merge is every pass's merge state; a merger's passes never overlap.
	merge kv.MergeScratch
}

// NewMerger returns a merger writing merged runs under prefix on store.
func NewMerger(store *disk.Store, prefix string, fanIn int) *Merger {
	if fanIn < 2 {
		fanIn = DefaultFanIn
	}
	return &Merger{FanIn: fanIn, store: store, prefix: prefix}
}

// AddRun registers a new on-disk run.
func (m *Merger) AddRun(r *Run) { m.runs = append(m.runs, r) }

// Runs returns the current run count.
func (m *Merger) Runs() int { return len(m.runs) }

// RunList returns the current runs (oldest first).
func (m *Merger) RunList() []*Run { return m.runs }

// NeedsPass reports whether the number of on-disk runs has reached the
// fan-in threshold, triggering a background merge (§II.A).
func (m *Merger) NeedsPass() bool { return len(m.runs) >= m.FanIn }

// MergePass merges the F oldest runs into one new run: it reads every
// input byte, re-writes every output byte, and counts real comparisons.
// The inputs are deleted afterwards.
func (m *Merger) MergePass(p *sim.Proc) *Run {
	n := m.FanIn
	if n > len(m.runs) {
		n = len(m.runs)
	}
	if n < 2 {
		return nil
	}
	victims := m.runs[:n]
	m.runs = append([]*Run(nil), m.runs[n:]...)

	var inBytes int64
	datas := make([][]byte, len(victims))
	for i, r := range victims {
		datas[i] = readRun(p, r)
		inBytes += r.Size()
	}
	// With the inputs in memory the k-way merge is pure data work: dispatch
	// it to the pool and let the owner's Charge hook account virtual time
	// over it. Comparisons fold in after the join so the worker never
	// touches shared counters.
	var out []byte
	var cmps int64
	work := p.StartWork(func() {
		streams := kv.SliceStreams(datas)
		// A merge pass rewrites its inputs verbatim, so the output is
		// exactly inBytes — allocate it once.
		out = make([]byte, 0, inBytes)
		kv.MergeGroups(streams, &cmps, &m.merge, func(k []byte, vals [][]byte) {
			for _, v := range vals {
				out = kv.AppendPair(out, k, v)
			}
		})
	})
	if m.Charge != nil {
		m.Charge(p, inBytes)
	}
	work.Wait()
	m.Comparisons += cmps
	m.seq++
	merged := WriteRun(p, m.store, fmt.Sprintf("%s/merged-%04d", m.prefix, m.seq), out)
	for _, r := range victims {
		r.Store.Delete(r.File.Name())
	}
	m.runs = append(m.runs, merged)
	m.BytesIn += inBytes
	m.BytesOut += merged.Size()
	m.Passes++
	return merged
}

// ReadRuns charges a full streamed read of every remaining run and returns
// each run's bytes, oldest first, for the caller to read and not write. The
// runs stay registered for DeleteAll. The final merge uses it so the merge and
// reduce scan become pure in-memory work a pooled closure can own.
func (m *Merger) ReadRuns(p *sim.Proc) [][]byte {
	out := make([][]byte, len(m.runs))
	for i, r := range m.runs {
		out[i] = readRun(p, r)
	}
	return out
}

// readRun charges the buffered reads the lazy Stream would make over the
// whole run and returns the file's bytes, which the caller only reads.
func readRun(p *sim.Proc, r *Run) []byte {
	rd := r.Store.NewReader(r.File, streamBuf)
	for rd.Next(p, streamBuf) != nil {
	}
	return r.File.Data()
}

// TotalRunBytes returns the byte volume of the remaining runs.
func (m *Merger) TotalRunBytes() int64 {
	var t int64
	for _, r := range m.runs {
		t += r.Size()
	}
	return t
}

// DeleteAll removes all remaining run files.
func (m *Merger) DeleteAll() {
	for _, r := range m.runs {
		r.Store.Delete(r.File.Name())
	}
	m.runs = nil
}

// Accumulator is the reduce-side in-memory buffer of fetched (already
// sorted) map-output segments. When the budget fills, the segments are
// merged and spilled to disk as one run.
type Accumulator struct {
	segs   [][]byte
	bytes  int64
	Budget int64
	// SegmentLimit, when positive, forces a spill once this many buffered
	// segments accumulate even if the byte budget is not exhausted —
	// Hadoop's mapreduce.reduce.merge.inmem.threshold (default 1000). This
	// is why the paper saw 1.4 GB of reduce spill on per-user count "even
	// if there is ample memory" (§III.B.4).
	SegmentLimit int
}

// NewAccumulator returns a buffer with the given byte budget.
func NewAccumulator(budget int64) *Accumulator {
	return &Accumulator{Budget: budget}
}

// Add buffers one sorted encoded segment.
func (a *Accumulator) Add(seg []byte) {
	if len(seg) == 0 {
		return
	}
	a.segs = append(a.segs, seg)
	a.bytes += int64(len(seg))
}

// Bytes returns the buffered byte volume.
func (a *Accumulator) Bytes() int64 { return a.bytes }

// Segments returns the number of buffered segments.
func (a *Accumulator) Segments() int { return len(a.segs) }

// Over reports whether the buffer exceeds its byte budget or its segment
// limit.
func (a *Accumulator) Over() bool {
	return a.bytes > a.Budget || (a.SegmentLimit > 0 && len(a.segs) >= a.SegmentLimit)
}

// TakeSegments returns the raw buffered segments and clears the
// accumulator. Callers that merge inside a pooled closure take the bytes on
// the event loop and open streams over them inside the closure.
func (a *Accumulator) TakeSegments() [][]byte {
	segs := a.segs
	a.segs = nil
	a.bytes = 0
	return segs
}

// PeekStreams opens the segments without clearing them — used for HOP's
// snapshot re-merges, which must leave the buffered data in place.
func (a *Accumulator) PeekStreams() []kv.PairStream {
	return kv.SliceStreams(a.segs)
}
