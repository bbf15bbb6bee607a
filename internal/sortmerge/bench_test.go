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

// BenchmarkMultiPassMerge measures the real merge work (comparisons +
// framing) over simulated runs, end to end through the disk model.
func BenchmarkMultiPassMerge(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := sim.New()
		store := disk.NewStore(disk.NewDevice(env, "d", disk.SSD))
		env.Go("merge", func(p *sim.Proc) {
			m := NewMerger(store, "b", 4)
			for r, enc := range runs {
				m.AddRun(WriteRun(p, store, fmt.Sprintf("r%d", r), enc))
				for m.NeedsPass() {
					m.MergePass(p)
				}
			}
			// The final merge as the reduce side runs it: runs read back in
			// full, merged from memory.
			var streams []kv.PairStream
			for _, d := range m.ReadRuns(p) {
				streams = append(streams, kv.NewSliceStream(d))
			}
			n := 0
			kv.MergeStreams(streams, nil, func(k, v []byte) { n++ })
			if n != 16*4096 {
				b.Fail()
			}
		})
		env.Run()
	}
}

func BenchmarkRunStream(b *testing.B) {
	env := sim.New()
	store := disk.NewStore(disk.NewDevice(env, "d", disk.SSD))
	var enc []byte
	for i := 0; i < 1<<14; i++ {
		enc = kv.AppendPair(enc, []byte(fmt.Sprintf("u%07d", i)), []byte("value-bytes"))
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e2 := sim.New()
		s2 := disk.NewStore(disk.NewDevice(e2, "d", disk.SSD))
		e2.Go("s", func(p *sim.Proc) {
			run := WriteRun(p, s2, "r", enc)
			st := NewStream(p, run)
			for {
				_, _, ok := st.Peek()
				if !ok {
					break
				}
				st.Advance()
			}
		})
		e2.Run()
	}
	_ = store
	_ = env
}
