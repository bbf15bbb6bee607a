package sortmerge

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"onepass/internal/disk"
	"onepass/internal/kv"
	"onepass/internal/sim"
)

// The benchmarks here and the budgets in alloc_test.go run the same ops.

// mergeRuns returns 16 sorted runs of 4096 random user keys each.
func mergeRuns() [][]byte {
	rng := rand.New(rand.NewSource(3))
	runs := make([][]byte, 16)
	for r := range runs {
		keys := make([]string, 4096)
		for i := range keys {
			keys[i] = fmt.Sprintf("u%07d", rng.Intn(1<<20))
		}
		sort.Strings(keys)
		var enc []byte
		for _, k := range keys {
			enc = kv.AppendPair(enc, []byte(k), []byte("v"))
		}
		runs[r] = enc
	}
	return runs
}

// multiPassMerge writes runs to a fresh simulated SSD, merges them 4 ways
// at a time as a map task's spills are merged, then merges what is left
// from memory as the reduce side does. It returns the records merged.
func multiPassMerge(runs [][]byte) int {
	env := sim.New()
	store := disk.NewStore(disk.NewDevice(env, "d", disk.SSD))
	n := 0
	env.Go("merge", func(p *sim.Proc) {
		m := NewMerger(store, "b", 4)
		for r, enc := range runs {
			m.AddRun(WriteRun(p, store, fmt.Sprintf("r%d", r), enc))
			for m.NeedsPass() {
				m.MergePass(p)
			}
		}
		var streams []kv.PairStream
		for _, d := range m.ReadRuns(p) {
			streams = append(streams, kv.NewSliceStream(d))
		}
		kv.MergeStreams(streams, nil, func(k, v []byte) { n++ })
	})
	env.Run()
	return n
}

// streamRunEncoding returns 16K pairs of 8-byte keys and 11-byte values.
func streamRunEncoding() []byte {
	var enc []byte
	for i := 0; i < 1<<14; i++ {
		enc = kv.AppendPair(enc, []byte(fmt.Sprintf("u%07d", i)), []byte("value-bytes"))
	}
	return enc
}

// streamRun writes enc as a run on a fresh simulated SSD and streams it
// back pair by pair.
func streamRun(enc []byte) {
	env := sim.New()
	store := disk.NewStore(disk.NewDevice(env, "d", disk.SSD))
	env.Go("s", func(p *sim.Proc) {
		st := NewStream(p, WriteRun(p, store, "r", enc))
		for {
			if _, _, ok := st.Peek(); !ok {
				break
			}
			st.Advance()
		}
	})
	env.Run()
}

// BenchmarkMultiPassMerge measures the real merge work (comparisons +
// framing) over simulated runs, end to end through the disk model.
func BenchmarkMultiPassMerge(b *testing.B) {
	runs := mergeRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if multiPassMerge(runs) != 16*4096 {
			b.Fatal("merge lost records")
		}
	}
}

func BenchmarkRunStream(b *testing.B) {
	enc := streamRunEncoding()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamRun(enc)
	}
}
