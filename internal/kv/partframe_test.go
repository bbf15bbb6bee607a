package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// PackPartitions replaced two streaming chunkers that encoded every pair
// into a per-partition append buffer and sealed the buffer as a chunk once
// it reached chunkBytes. Re-execution after a fault, the shuffle audit
// ledger and the golden traces all depend on chunk (partition, seq)
// identities, boundaries and bytes, so both chunkers are kept here verbatim
// as the oracle: every test and the fuzz target below demand identical
// chunks from the frame.

// refPartitionChunks is the former core.buildMapChunks chunker: per
// partition, the list of sealed chunks.
func refPartitionChunks(buf *Buffer, R int, chunkBytes int64, prealloc bool) [][][]byte {
	chunks := make([][][]byte, R) // per partition: encoded chunks <= ChunkBytes
	cur := make([][]byte, R)
	var chunkPrealloc int64
	if prealloc {
		chunkPrealloc = chunkBytes + 1<<10
	}
	addPair := func(r int, key, val []byte) {
		if cur[r] == nil && chunkPrealloc > 0 {
			cur[r] = make([]byte, 0, chunkPrealloc)
		}
		cur[r] = AppendPair(cur[r], key, val)
		if int64(len(cur[r])) >= chunkBytes {
			chunks[r] = append(chunks[r], cur[r])
			cur[r] = nil
		}
	}
	for i := 0; i < buf.Len(); i++ {
		addPair(buf.Partition(i), buf.Key(i), buf.Val(i))
	}
	for r := 0; r < R; r++ {
		if len(cur[r]) > 0 {
			chunks[r] = append(chunks[r], cur[r])
			cur[r] = nil
		}
	}
	return chunks
}

// refChunk is the former resident.resChunk.
type refChunk struct {
	r, seq int
	enc    []byte
}

// refSealOrderChunks is the former resident.buildChunks chunker: one list,
// in the order the chunks were sealed — the order they are pushed in.
func refSealOrderChunks(buf *Buffer, R int, chunkBytes int64) (chunks []refChunk, sealed []int) {
	sealed = make([]int, R)
	cur := make([][]byte, R)
	seal := func(r int) {
		if len(cur[r]) == 0 {
			return
		}
		chunks = append(chunks, refChunk{r: r, seq: sealed[r], enc: cur[r]})
		sealed[r]++
		cur[r] = nil
	}
	addPair := func(r int, key, val []byte) {
		cur[r] = AppendPair(cur[r], key, val)
		if int64(len(cur[r])) >= chunkBytes {
			seal(r)
		}
	}
	for i := 0; i < buf.Len(); i++ {
		addPair(buf.Partition(i), buf.Key(i), buf.Val(i))
	}
	for r := 0; r < R; r++ {
		seal(r)
	}
	return chunks, sealed
}

// frameChunkSizes are the push granularities the tests sweep: one byte
// (every pair its own chunk), smaller than most pairs' neighbours, the size
// of a small block's partition, and the hash engine's default.
var frameChunkSizes = []int64{1, 64, 4 << 10, 512 << 10}

func checkFrameMatchesReference(t *testing.T, buf *Buffer, R int, chunkBytes int64) {
	t.Helper()
	f := PackPartitions(buf, R, chunkBytes)

	// Seal order, identities and bytes: the resident engine's push sequence.
	want, sealed := refSealOrderChunks(buf, R, chunkBytes)
	if len(f.Chunks) != len(want) {
		t.Fatalf("R=%d chunkBytes=%d: %d chunks, reference %d", R, chunkBytes, len(f.Chunks), len(want))
	}
	for i, c := range f.Chunks {
		w := want[i]
		if c.Part != w.r || c.Seq != w.seq {
			t.Fatalf("chunk %d is (part %d, seq %d), reference (part %d, seq %d)", i, c.Part, c.Seq, w.r, w.seq)
		}
		if !bytes.Equal(c.Data, w.enc) {
			t.Fatalf("chunk %d (part %d, seq %d) bytes differ from reference:\n got %q\nwant %q", i, c.Part, c.Seq, c.Data, w.enc)
		}
		if cap(c.Data) != len(c.Data) {
			t.Fatalf("chunk %d capacity %d exceeds its length %d: an append would write into its neighbour", i, cap(c.Data), len(c.Data))
		}
	}

	// Per partition: the hash engine's chunk lists, with and without the
	// preallocation the plain scan used to make.
	got := make([][][]byte, R)
	for _, c := range f.Chunks {
		got[c.Part] = append(got[c.Part], c.Data)
	}
	for _, prealloc := range []bool{false, true} {
		ref := refPartitionChunks(buf, R, chunkBytes, prealloc)
		for r := 0; r < R; r++ {
			if len(got[r]) != len(ref[r]) || len(got[r]) != sealed[r] {
				t.Fatalf("partition %d: %d chunks, reference %d (sealed %d)", r, len(got[r]), len(ref[r]), sealed[r])
			}
			for i := range got[r] {
				if !bytes.Equal(got[r][i], ref[r][i]) {
					t.Fatalf("partition %d chunk %d differs from reference", r, i)
				}
			}
		}
	}

	// Layout: Data is the partitions back to back, each the concatenation of
	// its chunks, PartLen indexing them.
	if len(f.PartLen) != R {
		t.Fatalf("PartLen has %d entries, want %d", len(f.PartLen), R)
	}
	var off int64
	for r := 0; r < R; r++ {
		part := f.Data[off : off+f.PartLen[r]]
		if !bytes.Equal(part, bytes.Join(got[r], nil)) {
			t.Fatalf("partition %d's run in Data is not the concatenation of its chunks", r)
		}
		off += f.PartLen[r]
	}
	if off != int64(len(f.Data)) {
		t.Fatalf("PartLen sums to %d, Data holds %d", off, len(f.Data))
	}
}

func TestPackPartitionsTable(t *testing.T) {
	big := bytes.Repeat([]byte("v"), 5<<10) // one pair larger than a 4 KB chunk
	cases := []struct {
		name  string
		R     int
		pairs []testPair
	}{
		{"empty buffer", 4, nil},
		{"one pair", 1, []testPair{{0, "k", "v"}}},
		{"empty partitions between full ones", 5, []testPair{{4, "a", "1"}, {0, "b", "2"}, {4, "c", "3"}}},
		{"empty keys and values", 2, []testPair{{0, "", ""}, {1, "", "x"}, {0, "y", ""}}},
		{"pair larger than a chunk, alone", 2, []testPair{{1, "k", string(big)}}},
		{"pair larger than a chunk, between small ones", 2, []testPair{
			{0, "a", "1"}, {0, "k", string(big)}, {0, "b", "2"}, {1, "c", "3"}}},
		{"128-byte values crossing a varint boundary", 3, []testPair{
			{0, "k0", string(big[:127])}, {1, "k1", string(big[:128])}, {2, "k2", string(big[:129])}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := fillBuffer(tc.pairs)
			for _, cb := range frameChunkSizes {
				checkFrameMatchesReference(t, buf, tc.R, cb)
			}
		})
	}
}

func TestPackPartitionsSortedBufferIsSequentialEncoding(t *testing.T) {
	// The sort-merge engine packs an already (partition, key)-sorted buffer:
	// the frame must be the plain in-order encoding, indexed by partition.
	buf := NewBuffer(0)
	for i := 0; i < 200; i++ {
		buf.Add(i%7, []byte(fmt.Sprintf("k%03d", (i*37)%200)), []byte(fmt.Sprint(i)))
	}
	buf.SortByPartitionKey(nil)
	var want []byte
	for i := 0; i < buf.Len(); i++ {
		want = AppendPair(want, buf.Key(i), buf.Val(i))
	}
	f := PackPartitions(buf, 7, 1<<62)
	if !bytes.Equal(f.Data, want) {
		t.Fatal("frame of a sorted buffer is not its in-order encoding")
	}
}

func TestPackPartitionsRandomBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		R := 1 + rng.Intn(20)
		buf := NewBuffer(0)
		n := rng.Intn(400)
		for i := 0; i < n; i++ {
			key := make([]byte, rng.Intn(24))
			rng.Read(key)
			vlen := rng.Intn(96)
			if rng.Intn(50) == 0 {
				vlen = 4<<10 + rng.Intn(4<<10) // larger than the 4 KB chunk
			}
			val := make([]byte, vlen)
			rng.Read(val)
			// Skewed partitions: some stay empty, some take most pairs.
			buf.Add(rng.Intn(1+rng.Intn(R)), key, val)
		}
		for _, cb := range frameChunkSizes {
			checkFrameMatchesReference(t, buf, R, cb)
		}
	}
}

// frameCaseFromBytes decodes fuzz input into a buffer: per pair one control
// byte (partition in the low three bits, key length in the next three, the
// top bit a 40x value-length multiplier that makes pairs larger than the
// small chunk sizes) and one value-length byte, followed by the key bytes.
func frameCaseFromBytes(data []byte, R int) *Buffer {
	buf := NewBuffer(0)
	for len(data) >= 2 {
		ctl, vlen := data[0], int(data[1])
		data = data[2:]
		klen := int(ctl>>3) & 7
		if klen > len(data) {
			klen = len(data)
		}
		key := data[:klen]
		data = data[klen:]
		if ctl&0x80 != 0 {
			vlen *= 40
		}
		buf.Add(int(ctl&7)%R, key, bytes.Repeat([]byte{ctl}, vlen))
	}
	return buf
}

func FuzzFrameChunksMatchReference(f *testing.F) {
	f.Add([]byte{}, uint8(4))
	f.Add([]byte{0, 0, 1, 0}, uint8(2))                            // empty keys and values
	f.Add([]byte{0x0b, 3, 'a', 0x83, 200, 0x0b, 3, 'b'}, uint8(5)) // an 8000-byte pair between small ones
	f.Add(bytes.Repeat([]byte{0x12, 60, 'u', '1'}, 80), uint8(1))  // one partition, many chunks
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		R := 1 + int(parts)%20
		buf := frameCaseFromBytes(data, R)
		for _, cb := range frameChunkSizes {
			checkFrameMatchesReference(t, buf, R, cb)
		}
	})
}

// FuzzFrameBuilderMatchesPackPartitions splits a buffer's pairs at a random
// point: the pairs before it are staged, as a combine table's budget flush
// stages them, and the rest come from the final drain. The frame must be the
// one PackPartitions lays out over the whole buffer.
func FuzzFrameBuilderMatchesPackPartitions(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint16(0))
	f.Add([]byte{0, 0, 1, 0}, uint8(2), uint16(1))                            // empty keys and values
	f.Add([]byte{0x0b, 3, 'a', 0x83, 200, 0x0b, 3, 'b'}, uint8(5), uint16(2)) // an 8000-byte pair staged
	f.Add(bytes.Repeat([]byte{0x12, 60, 'u', '1'}, 80), uint8(1), uint16(37)) // one partition, many chunks
	f.Add(bytes.Repeat([]byte{0x09, 90, 'k', 0x0a, 70, 'j'}, 40), uint8(7), uint16(41))
	f.Fuzz(func(t *testing.T, data []byte, parts uint8, split uint16) {
		R := 1 + int(parts)%20
		buf := frameCaseFromBytes(data, R)
		at := int(split) % (buf.Len() + 1)
		for _, cb := range frameChunkSizes {
			fb := NewFrameBuilder(R, cb)
			for i := 0; i < at; i++ {
				fb.Stage(buf.Partition(i), buf.Key(i), buf.Val(i))
			}
			got := fb.Finish(func(add func(part int, key, val []byte)) {
				for i := at; i < buf.Len(); i++ {
					add(buf.Partition(i), buf.Key(i), buf.Val(i))
				}
			})
			checkFramesEqual(t, got, PackPartitions(buf, R, cb))
			if fb.PairBytes() != buf.Bytes() {
				t.Fatalf("chunkBytes=%d split %d: builder counted %d pair bytes, buffer holds %d", cb, at, fb.PairBytes(), buf.Bytes())
			}
		}
	})
}

// checkFramesEqual demands the same slab, partition index and chunks — in
// the same seal order, each with its capacity clipped to its length.
func checkFramesEqual(t *testing.T, got, want *PartitionFrame) {
	t.Helper()
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("Data differs:\n got %q\nwant %q", got.Data, want.Data)
	}
	if fmt.Sprint(got.PartLen) != fmt.Sprint(want.PartLen) {
		t.Fatalf("PartLen %v, want %v", got.PartLen, want.PartLen)
	}
	if len(got.Chunks) != len(want.Chunks) {
		t.Fatalf("%d chunks, want %d", len(got.Chunks), len(want.Chunks))
	}
	for i, c := range got.Chunks {
		w := want.Chunks[i]
		if c.Part != w.Part || c.Seq != w.Seq || !bytes.Equal(c.Data, w.Data) {
			t.Fatalf("chunk %d is (part %d, seq %d, %d bytes), want (part %d, seq %d, %d bytes) with the same contents",
				i, c.Part, c.Seq, len(c.Data), w.Part, w.Seq, len(w.Data))
		}
		if cap(c.Data) != len(c.Data) {
			t.Fatalf("chunk %d capacity %d exceeds its length %d", i, cap(c.Data), len(c.Data))
		}
	}
}
