package hashlib

import (
	"fmt"
	"testing"
)

var hashSink uint64

func BenchmarkHash16B(b *testing.B) {
	h := NewFamily(1).New()
	key := []byte("user-123456-page")
	b.SetBytes(int64(len(key)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink += h.Hash(key)
	}
}

func BenchmarkHash64B(b *testing.B) {
	h := NewFamily(1).New()
	key := make([]byte, 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink += h.Hash(key)
	}
}

// BenchmarkHashShortKeys hashes the keys the workloads hash: 2- to 8-byte
// user ("u<n>") and word ("w<n>") keys. It reports ns per key.
func BenchmarkHashShortKeys(b *testing.B) {
	h := NewFamily(1).New()
	var keys [][]byte
	for n := 1; n < 1e7; n *= 7 {
		keys = append(keys, []byte(fmt.Sprintf("u%d", n)), []byte(fmt.Sprintf("w%d", n)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			hashSink += h.Hash(k)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
}

func BenchmarkBucket(b *testing.B) {
	h := NewFamily(1).New()
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user-%06d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Bucket(keys[i&63], 60)
	}
}
