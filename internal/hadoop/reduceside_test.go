package hadoop

import (
	"bytes"
	"fmt"
	"testing"

	"onepass/internal/disk"
	"onepass/internal/engine"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/sortmerge"
)

// groupTestValue is the value of key k's j-th pair in run r: content a
// reducer can verify byte for byte.
func groupTestValue(r, k, j int) []byte {
	head := fmt.Sprintf("run%d/key%03d/val%03d/", r, k, j)
	return append([]byte(head), bytes.Repeat([]byte{byte('a' + (r+k+j)%26)}, 100-len(head))...)
}

// MergeGroupReduce aliases values only when every stream is an in-memory
// slice. A sortmerge.Stream compacts and refills its 256 KB buffer as it
// advances, so values of a group that straddles a refill would be
// overwritten before the reduce call if they were aliased. The buffer is
// first reused in place (rather than grown) on its third refill, so the runs
// span more than four buffers; every group must still see intact values —
// alone and mixed with an in-memory segment, the shape of a HOP snapshot
// merge.
func TestMergeGroupReduceSurvivesStreamRefills(t *testing.T) {
	const runs, keys, perKey = 3, 128, 100
	encodeRun := func(r int) []byte {
		var enc []byte
		for k := 0; k < keys; k++ {
			for j := 0; j < perKey; j++ {
				enc = kv.AppendPair(enc, []byte(fmt.Sprintf("key%03d", k)), groupTestValue(r, k, j))
			}
		}
		return enc
	}
	for _, inMemory := range []int{0, 1} {
		// The merge runs on a simulated process, not the test goroutine:
		// collect the first failure and report it after the run.
		var failure string
		fail := func(format string, args ...any) {
			if failure == "" {
				failure = fmt.Sprintf(format, args...)
			}
		}
		env := sim.New()
		store := disk.NewStore(disk.NewDevice(env, "scratch", disk.SSD))
		env.Go("merge", func(p *sim.Proc) {
			var streams []kv.PairStream
			for r := 0; r < runs; r++ {
				enc := encodeRun(r)
				if r < inMemory {
					streams = append(streams, kv.NewSliceStream(enc))
					continue
				}
				if len(enc) < 4*(256<<10) {
					fail("run of %d bytes does not force the stream buffer to be reused", len(enc))
				}
				streams = append(streams, sortmerge.NewStream(p, sortmerge.WriteRun(p, store, fmt.Sprintf("run-%d", r), enc)))
			}
			if kv.AllSliceStreams(streams) {
				fail("on-disk run streams must not qualify for aliasing")
			}
			groups := 0
			job := &engine.Job{Reduce: func(key []byte, vals [][]byte, emit engine.Emit) {
				k := groups
				groups++
				if want := fmt.Sprintf("key%03d", k); string(key) != want {
					fail("group %d has key %q, want %q", k, key, want)
				}
				if len(vals) != runs*perKey {
					fail("key %s: %d values, want %d", key, len(vals), runs*perKey)
					return
				}
				// The merge is stable by stream index: run 0's values first.
				for i, v := range vals {
					if want := groupTestValue(i/perKey, k, i%perKey); !bytes.Equal(v, want) {
						fail("key %s value %d corrupted: %q, want %q", key, i, v, want)
					}
				}
			}}
			if _, inputs := MergeGroupReduce(streams, job, func(k, v []byte) {}); inputs != runs*keys*perKey {
				fail("reduced %d values, want %d", inputs, runs*keys*perKey)
			}
			if groups != keys {
				fail("%d groups, want %d", groups, keys)
			}
		})
		env.Run()
		if failure != "" {
			t.Fatalf("%d of %d streams in memory: %s", inMemory, runs, failure)
		}
	}
}
