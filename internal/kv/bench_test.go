package kv

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func BenchmarkAppendDecodePair(b *testing.B) {
	key, val := []byte("user-1234567"), []byte("869769600 /en/page/123")
	b.SetBytes(int64(EncodedSize(key, val)))
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendPair(buf[:0], key, val)
		_, _, n := DecodePair(buf)
		if n == 0 {
			b.Fatal("decode failed")
		}
	}
}

// Eight-byte keys tie on every prefix and fall back to comparing key bytes;
// short keys, "u" and at most six digits as the click workloads emit, are
// decided by their prefixes alone.
const (
	longBenchKey  = "u%07d"
	shortBenchKey = "u%d"
)

func BenchmarkBufferSort64K(b *testing.B)          { benchBufferSort64K(b, longBenchKey, 1<<20) }
func BenchmarkBufferSort64KShortKeys(b *testing.B) { benchBufferSort64K(b, shortBenchKey, 1_000_000) }

func benchBufferSort64K(b *testing.B, format string, users int) {
	rng := rand.New(rand.NewSource(7))
	keys := make([][]byte, 1<<16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf(format, rng.Intn(users)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := NewBuffer(1 << 20)
		for j, k := range keys {
			buf.Add(j&15, k, []byte("1"))
		}
		b.StartTimer()
		var cmps int64
		buf.SortByPartitionKey(&cmps)
	}
}

// mergeBenchRuns returns eight sorted runs of 4096 random user keys each.
func mergeBenchRuns(format string, users int) [][]byte {
	rng := rand.New(rand.NewSource(9))
	runs := make([][]byte, 8)
	for r := range runs {
		keys := make([]string, 4096)
		for i := range keys {
			keys[i] = fmt.Sprintf(format, rng.Intn(users))
		}
		sort.Strings(keys)
		var enc []byte
		for _, k := range keys {
			enc = AppendPair(enc, []byte(k), []byte("1"))
		}
		runs[r] = enc
	}
	return runs
}

func BenchmarkMergeStreams8Way(b *testing.B) {
	runs := mergeBenchRuns(longBenchKey, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]PairStream, len(runs))
		for r, enc := range runs {
			streams[r] = NewSliceStream(enc)
		}
		n := 0
		MergeStreams(streams, nil, func(k, v []byte) { n++ })
		if n != 8*4096 {
			b.Fatal("merge lost records")
		}
	}
}

// BenchmarkMergeGroups8Way is BenchmarkMergeStreams8Way's merge handing
// whole key groups to the callback through one kept scratch, as a reducer
// runs it.
func BenchmarkMergeGroups8Way(b *testing.B) { benchMergeGroups8Way(b, longBenchKey, 1<<20) }
func BenchmarkMergeGroups8WayShortKeys(b *testing.B) {
	benchMergeGroups8Way(b, shortBenchKey, 1_000_000)
}

func benchMergeGroups8Way(b *testing.B, format string, users int) {
	runs := mergeBenchRuns(format, users)
	var s MergeScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]PairStream, len(runs))
		for r, enc := range runs {
			streams[r] = NewSliceStream(enc)
		}
		n := 0
		MergeGroups(streams, nil, &s, func(k []byte, vals [][]byte) { n += len(vals) })
		if n != 8*4096 {
			b.Fatal("merge lost records")
		}
	}
}
