package kv

import (
	"encoding/binary"
	"math/bits"
)

// PartitionFrame is one map task's output encoded exactly once: every pair
// in a single slab sized to the bytes it holds, partitions back to back. The
// map-output file adopts Data as its contents and the push chunks are
// sub-slices of it, so a pair is copied once on its way from the map function
// to the shuffle instead of once per layer.
type PartitionFrame struct {
	// Data holds the partitions' encoded pairs back to back in partition
	// order; within a partition pairs keep the order they came in.
	Data []byte
	// PartLen[r] is the byte length of partition r's run in Data.
	PartLen []int64
	// Chunks cuts each partition's run into push units, listed in the order
	// a chunker streaming over the pairs would have sealed them: a chunk is
	// sealed by the pair that brings it to chunkBytes or more, and the
	// unsealed tails follow in partition order.
	Chunks []Chunk
}

// Chunk is one push unit: the Seq-th chunk of partition Part. Data aliases
// the frame with its capacity clipped, so appending to it never writes into
// a neighbouring chunk; consumers must still treat the bytes as read-only.
type Chunk struct {
	Part, Seq int
	Data      []byte
}

// PackPartitions lays b out as a PartitionFrame for parts partitions: one
// counting pass gives every partition's exact encoded size, one slab is
// allocated at the total, and one fill pass in buffer order encodes each
// pair at its partition's cursor, sealing chunks as it goes. The result
// depends only on the buffer's contents, parts and chunkBytes.
func PackPartitions(b *Buffer, parts int, chunkBytes int64) *PartitionFrame {
	partLen := make([]int64, parts)
	for _, r := range b.refs {
		partLen[r.part] += int64(uvarintLen(uint64(r.klen)) + uvarintLen(uint64(r.vlen)) + int(r.klen+r.vlen))
	}
	w := newFrameWriter(partLen, len(b.refs), chunkBytes)
	for _, r := range b.refs {
		w.put(int(r.part), b.data[r.off:r.off+r.klen], b.data[r.off+r.klen:r.off+r.klen+r.vlen])
	}
	return w.finish()
}

// FrameBuilder lays out a PartitionFrame from pairs that come in two
// stretches: pairs staged while a map task's input is still being read (a
// combine table's budget flush), then a final drain of whatever is left. The
// frame is exactly what PackPartitions builds from a Buffer holding the same
// pairs in the same order, staged ones first — same Data, PartLen, and
// chunks with the same identities, bytes and seal order. Staged pairs are
// encoded into one buffer for the task; the drain is walked twice, once to
// size the slab and once to encode into it, so its pairs are copied once.
type FrameBuilder struct {
	parts      int
	chunkBytes int64
	// staged holds the staged pairs encoded back to back in arrival order;
	// runs cuts it into maximal stretches of one partition.
	staged      []byte
	runs        []stagedRun
	stagedPairs int
	pairBytes   int64
}

// stagedRun is a stretch of staged pairs of one partition, ending at offset
// end of the staging buffer.
type stagedRun struct{ part, end int }

// NewFrameBuilder returns an empty builder for parts partitions cut into
// chunks of chunkBytes.
func NewFrameBuilder(parts int, chunkBytes int64) *FrameBuilder {
	return &FrameBuilder{parts: parts, chunkBytes: chunkBytes}
}

// Stage appends one pair ahead of the final drain, copying it.
func (fb *FrameBuilder) Stage(part int, key, val []byte) {
	fb.staged = AppendPair(fb.staged, key, val)
	if n := len(fb.runs); n > 0 && fb.runs[n-1].part == part {
		fb.runs[n-1].end = len(fb.staged)
	} else {
		fb.runs = append(fb.runs, stagedRun{part: part, end: len(fb.staged)})
	}
	fb.stagedPairs++
	fb.pairBytes += int64(len(key) + len(val))
}

// PairBytes returns the key and value bytes of every pair staged so far and,
// once Finish has run, drained: the payload the frame carries.
func (fb *FrameBuilder) PairBytes() int64 { return fb.pairBytes }

// Finish lays out the frame: the staged pairs, then the pairs drain hands to
// add, in that order. drain is called twice — to count, then to fill one slab
// allocated at the total — and must add the same pairs in the same order both
// times; add copies what it is handed before it returns.
func (fb *FrameBuilder) Finish(drain func(add func(part int, key, val []byte))) *PartitionFrame {
	partLen := make([]int64, fb.parts)
	start := 0
	for _, run := range fb.runs {
		partLen[run.part] += int64(run.end - start)
		start = run.end
	}
	pairs := fb.stagedPairs
	drain(func(part int, key, val []byte) {
		partLen[part] += int64(EncodedSize(key, val))
		fb.pairBytes += int64(len(key) + len(val))
		pairs++
	})
	w := newFrameWriter(partLen, pairs, fb.chunkBytes)
	start = 0
	for _, run := range fb.runs {
		for rest := fb.staged[start:run.end]; len(rest) > 0; {
			key, val, n := DecodePair(rest)
			w.put(run.part, key, val)
			rest = rest[n:]
		}
		start = run.end
	}
	drain(w.put)
	return w.finish()
}

// frameWriter fills a frame's slab: each pair encoded at its partition's
// cursor, chunks sealed as a chunker streaming over the pairs seals them.
type frameWriter struct {
	f          *PartitionFrame
	curs       []frameCursor
	chunkBytes int64
}

// frameCursor is one partition's write position, where its open chunk
// starts, and its next chunk's sequence number.
type frameCursor struct{ at, open, seq int }

// newFrameWriter allocates the slab for partitions of partLen encoded bytes
// holding pairs pairs in all.
func newFrameWriter(partLen []int64, pairs int, chunkBytes int64) *frameWriter {
	w := &frameWriter{f: &PartitionFrame{PartLen: partLen}, curs: make([]frameCursor, len(partLen)), chunkBytes: chunkBytes}
	total := 0
	for r := range w.curs {
		w.curs[r] = frameCursor{at: total, open: total}
		total += int(partLen[r])
	}
	w.f.Data = make([]byte, total)
	// At most one chunk per chunkBytes of data plus one tail per partition,
	// and never more chunks than pairs.
	w.f.Chunks = make([]Chunk, 0, min(int64(pairs), int64(total)/max(chunkBytes, 1)+int64(len(partLen))))
	return w
}

// put encodes one pair at its partition's cursor, sealing the partition's
// open chunk when the pair brings it to chunkBytes or more.
func (w *frameWriter) put(part int, key, val []byte) {
	c := &w.curs[part]
	n := c.at
	n += binary.PutUvarint(w.f.Data[n:], uint64(len(key)))
	n += binary.PutUvarint(w.f.Data[n:], uint64(len(val)))
	n += copy(w.f.Data[n:], key)
	n += copy(w.f.Data[n:], val)
	c.at = n
	if int64(n-c.open) >= w.chunkBytes {
		w.seal(part)
	}
}

func (w *frameWriter) seal(r int) {
	c := &w.curs[r]
	w.f.Chunks = append(w.f.Chunks, Chunk{Part: r, Seq: c.seq, Data: w.f.Data[c.open:c.at:c.at]})
	c.seq++
	c.open = c.at
}

// finish seals the partitions' unsealed tails, in partition order.
func (w *frameWriter) finish() *PartitionFrame {
	for r := range w.curs {
		if w.curs[r].at > w.curs[r].open {
			w.seal(r)
		}
	}
	return w.f
}

// uvarintLen returns the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}
