package workloads

import (
	"testing"

	"onepass/internal/engine"
)

// benchmarkSessionize reduces the groups of 64 default 128 KB click blocks,
// in map-task order, through one reducer instance grown to the largest
// group beforehand. It reports ns per value.
func benchmarkSessionize(b *testing.B, reduce engine.ReduceFunc) {
	keys, groups := clickGroups(64)
	vals := 0
	sink := func(_, _ []byte) {}
	for g := range groups {
		reduce(keys[g], groups[g], sink)
		vals += len(groups[g])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := range groups {
			reduce(keys[g], groups[g], sink)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vals), "ns/val")
}

func BenchmarkSessionizeReduce(b *testing.B) { benchmarkSessionize(b, sessionizeReducer()) }

// BenchmarkSessionizeReduceReference times the former reducer on the same
// groups, the before of BenchmarkSessionizeReduce's after.
func BenchmarkSessionizeReduceReference(b *testing.B) {
	benchmarkSessionize(b, refSessionizeReducer())
}
