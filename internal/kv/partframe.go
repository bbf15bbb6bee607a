package kv

import (
	"encoding/binary"
	"math/bits"
)

// PartitionFrame is one map task's output encoded exactly once: every pair
// of a Buffer in a single slab sized to the bytes it holds, partitions back
// to back. The map-output file adopts Data as its contents and the push
// chunks are sub-slices of it, so a pair is copied once on its way from the
// map function to the shuffle instead of once per layer.
type PartitionFrame struct {
	// Data holds the partitions' encoded pairs back to back in partition
	// order; within a partition pairs keep buffer order.
	Data []byte
	// PartLen[r] is the byte length of partition r's run in Data.
	PartLen []int64
	// Chunks cuts each partition's run into push units, listed in the order
	// a chunker streaming over the buffer would have sealed them: a chunk is
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
	f := &PartitionFrame{PartLen: make([]int64, parts)}
	for _, r := range b.refs {
		f.PartLen[r.part] += int64(uvarintLen(uint64(r.klen)) + uvarintLen(uint64(r.vlen)) + int(r.klen+r.vlen))
	}
	// Per partition: the write cursor, where its open chunk starts, and the
	// next chunk's sequence number.
	type cursor struct{ at, open, seq int }
	curs := make([]cursor, parts)
	total := 0
	for r := range curs {
		curs[r] = cursor{at: total, open: total}
		total += int(f.PartLen[r])
	}
	f.Data = make([]byte, total)
	// At most one chunk per chunkBytes of data plus one tail per partition,
	// and never more chunks than pairs.
	f.Chunks = make([]Chunk, 0, min(int64(len(b.refs)), int64(total)/max(chunkBytes, 1)+int64(parts)))
	seal := func(r int) {
		c := &curs[r]
		f.Chunks = append(f.Chunks, Chunk{Part: r, Seq: c.seq, Data: f.Data[c.open:c.at:c.at]})
		c.seq++
		c.open = c.at
	}
	for _, r := range b.refs {
		c := &curs[r.part]
		n := c.at
		n += binary.PutUvarint(f.Data[n:], uint64(r.klen))
		n += binary.PutUvarint(f.Data[n:], uint64(r.vlen))
		// Key and value sit back to back in the buffer.
		n += copy(f.Data[n:], b.data[r.off:r.off+r.klen+r.vlen])
		c.at = n
		if int64(n-c.open) >= chunkBytes {
			seal(int(r.part))
		}
	}
	for r := range curs {
		if curs[r].at > curs[r].open {
			seal(r)
		}
	}
	return f
}

// uvarintLen returns the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}
