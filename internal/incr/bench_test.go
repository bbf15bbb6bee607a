package incr

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"onepass/internal/kv"
)

// The delta path's host-side kernels at the shape of a per-user count: a
// 128-block base whose blocks each hold partials for 256 of 8,192 users,
// captured from 20 reducers' part files; a delta rewriting one block; and
// the incremental merge that follows it.
const (
	benchBlocks   = 128
	benchReducers = 20
	benchDirty    = 17
)

// benchParts encodes the partials of blocks as a capture run leaves them:
// one part file per reducer, users spread over reducers, each file sorted
// by its keys, uvarint(block) ++ user. Each key gets 16 bytes of its own:
// the runtime counts allocations of under 16 pointer-free bytes lazily,
// which would leak set-up allocations into the timed operation.
func benchParts(rng *rand.Rand, blocks []int) [][]byte {
	var keys [benchReducers][][]byte
	for _, b := range blocks {
		for _, u := range rng.Perm(8192)[:256] {
			key := binary.AppendUvarint(make([]byte, 0, 16), uint64(b))
			key = fmt.Appendf(key, "u%d", u)
			keys[u%benchReducers] = append(keys[u%benchReducers], key)
		}
	}
	parts := make([][]byte, benchReducers)
	for r := range parts {
		slices.SortFunc(keys[r], func(x, y []byte) int { return slices.Compare(x, y) })
		for _, k := range keys[r] {
			parts[r] = kv.AppendPair(parts[r], k, []byte("12"))
		}
	}
	return parts
}

func benchBase() (base [][]byte, all []int) {
	all = make([]int, benchBlocks)
	for b := range all {
		all[b] = b
	}
	return benchParts(rand.New(rand.NewSource(1)), all), all
}

// benchDelta primes a state with the base, caches a final for every key,
// and returns it with the part files of a delta to block benchDirty.
func benchDelta(b *testing.B) (*State, [][]byte) {
	base, all := benchBase()
	st := New("bench")
	if err := st.Capture(base, all, benchBlocks, nil); err != nil {
		b.Fatal(err)
	}
	input, err := st.MergeInput(nil)
	if err != nil {
		b.Fatal(err)
	}
	var finals, prev []byte
	for dec := kv.NewDecoder(input); ; {
		k, _, ok := dec.Next()
		if !ok {
			break
		}
		if len(finals) == 0 || !slices.Equal(prev, k) {
			finals = kv.AppendPair(finals, k, []byte("f"))
		}
		prev = k
	}
	if err := st.SetFinals([][]byte{finals}); err != nil {
		b.Fatal(err)
	}
	return st, benchParts(rand.New(rand.NewSource(2)), []int{benchDirty})
}

// The runtime's own allocations would count as the op's: starting the
// world after a stop — ResetTimer's ReadMemStats, a GC cycle — may start an
// OS thread for an idle P, 5 objects (m, g0, signal stack, two profiling
// stacks: 5,248 B), and a GC cycle's mark termination may take a sudog.
// Capture runs on one goroutine, so the op runs on one P, leaving none idle,
// after a collection that leaves it no cycle to start.
func BenchmarkCaptureBase128Blocks(b *testing.B) {
	base, all := benchBase()
	procs := runtime.GOMAXPROCS(1)
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New("bench").Capture(base, all, benchBlocks, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GOMAXPROCS(procs)
}

func BenchmarkCaptureOneBlockDelta(b *testing.B) {
	st, delta := benchDelta(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Capture(delta, []int{benchDirty}, benchBlocks, new(Affected)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeAffected(b *testing.B) {
	st, delta := benchDelta(b)
	affected := new(Affected)
	if err := st.Capture(delta, []int{benchDirty}, benchBlocks, affected); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Merge(affected); err != nil {
			b.Fatal(err)
		}
	}
}
