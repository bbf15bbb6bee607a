package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"onepass/internal/gen"
	"onepass/internal/workloads"
)

func BenchmarkSpaceSavingOffer(b *testing.B) {
	s := NewSpaceSaving(4096)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<20)
	keys := make([][]byte, 1<<12)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("u%d", zipf.Uint64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(keys[i&(1<<12-1)], 1)
	}
}

// BenchmarkSpaceSavingOfferEvict has the shape of the bench harness's
// sketch.offer_ns_per_op probe: 256 counters over the Sessionization user
// keys of one 128 KB click block, so most offers of an untracked key evict.
// It reports ns per Offer.
func BenchmarkSpaceSavingOfferEvict(b *testing.B) {
	cc := gen.DefaultClickConfig()
	cc.Seed = 1998
	sess := workloads.Sessionization(cc)
	var keys [][]byte
	sess.Job.Reader(cc.Block(0, 128<<10), func(rec []byte) {
		sess.Job.Map(rec, func(k, _ []byte) { keys = append(keys, bytes.Clone(k)) })
	})
	s := NewSpaceSaving(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			s.Offer(k, 1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/offer")
}

func BenchmarkSpaceSavingEstimate(b *testing.B) {
	s := NewSpaceSaving(4096)
	for i := 0; i < 1<<14; i++ {
		s.Offer([]byte(fmt.Sprintf("u%d", i%8192)), 1)
	}
	key := []byte("u42")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Estimate(key)
	}
}
