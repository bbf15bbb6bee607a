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

func newStore(env *sim.Env) *disk.Store {
	return disk.NewStore(disk.NewDevice(env, "scratch", disk.SSD))
}

// runStreams opens every remaining run of m as a lazily refilled Stream —
// the snapshot re-merge's view of the runs.
func runStreams(p *sim.Proc, m *Merger) []kv.PairStream {
	var out []kv.PairStream
	for _, r := range m.RunList() {
		out = append(out, NewStream(p, r))
	}
	return out
}

func encodeKeys(keys []string) []byte {
	var out []byte
	for _, k := range keys {
		out = kv.AppendPair(out, []byte(k), []byte("v-"+k))
	}
	return out
}

func TestStreamRoundTrip(t *testing.T) {
	env := sim.New()
	store := newStore(env)
	keys := []string{"a", "b", "c", "d"}
	env.Go("t", func(p *sim.Proc) {
		run := WriteRun(p, store, "run0", encodeKeys(keys))
		s := NewStream(p, run)
		for _, want := range keys {
			k, v, ok := s.Peek()
			if !ok || string(k) != want || string(v) != "v-"+want {
				t.Errorf("got %q/%q ok=%v, want %q", k, v, ok, want)
			}
			s.Advance()
		}
		if _, _, ok := s.Peek(); ok {
			t.Error("stream must end")
		}
	})
	env.Run()
}

func TestStreamChargesReads(t *testing.T) {
	env := sim.New()
	dev := disk.NewDevice(env, "scratch", disk.SSD)
	store := disk.NewStore(dev)
	big := make([]string, 0, 20000)
	for i := 0; i < 20000; i++ {
		big = append(big, fmt.Sprintf("key-%08d", i))
	}
	sort.Strings(big)
	env.Go("t", func(p *sim.Proc) {
		run := WriteRun(p, store, "run0", encodeKeys(big))
		written := dev.BytesWritten()
		s := NewStream(p, run)
		n := 0
		for {
			_, _, ok := s.Peek()
			if !ok {
				break
			}
			s.Advance()
			n++
		}
		if n != len(big) {
			t.Errorf("read %d records", n)
		}
		if dev.BytesRead() != written {
			t.Errorf("read %v bytes, wrote %v", dev.BytesRead(), written)
		}
	})
	env.Run()
}

func TestMergerMultiPass(t *testing.T) {
	env := sim.New()
	store := newStore(env)
	rng := rand.New(rand.NewSource(7))
	env.Go("t", func(p *sim.Proc) {
		m := NewMerger(store, "red0", 4)
		var all []string
		for r := 0; r < 10; r++ {
			n := 20 + rng.Intn(20)
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%04d", rng.Intn(1000))
			}
			sort.Strings(keys)
			all = append(all, keys...)
			m.AddRun(WriteRun(p, store, fmt.Sprintf("red0/run-%d", r), encodeKeys(keys)))
			for m.NeedsPass() {
				m.MergePass(p)
			}
		}
		if m.Runs() >= 4 {
			t.Errorf("runs after background merges = %d, want < fan-in", m.Runs())
		}
		if m.Passes == 0 || m.BytesIn == 0 || m.Comparisons == 0 {
			t.Errorf("merge accounting empty: passes=%d in=%d cmp=%d", m.Passes, m.BytesIn, m.Comparisons)
		}
		// Final merge must produce the global sorted order.
		var got []string
		kv.MergeStreams(runStreams(p, m), nil, func(k, v []byte) { got = append(got, string(k)) })
		sort.Strings(all)
		if len(got) != len(all) {
			t.Fatalf("merged %d records, want %d", len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("record %d = %q, want %q", i, got[i], all[i])
			}
		}
		m.DeleteAll()
		if len(store.Names()) != 0 {
			t.Errorf("leftover files: %v", store.Names())
		}
	})
	env.Run()
}

func TestMergePassDeletesInputs(t *testing.T) {
	env := sim.New()
	store := newStore(env)
	env.Go("t", func(p *sim.Proc) {
		m := NewMerger(store, "x", 2)
		m.AddRun(WriteRun(p, store, "x/r0", encodeKeys([]string{"a", "c"})))
		m.AddRun(WriteRun(p, store, "x/r1", encodeKeys([]string{"b", "d"})))
		before := len(store.Names())
		m.MergePass(p)
		after := store.Names()
		if before != 2 || len(after) != 1 {
			t.Errorf("files before=%d after=%v", before, after)
		}
		if m.Runs() != 1 {
			t.Errorf("runs = %d", m.Runs())
		}
	})
	env.Run()
}

func TestMergePassOnSingleRunIsNoop(t *testing.T) {
	env := sim.New()
	store := newStore(env)
	env.Go("t", func(p *sim.Proc) {
		m := NewMerger(store, "x", 4)
		m.AddRun(WriteRun(p, store, "x/r0", encodeKeys([]string{"a"})))
		if m.MergePass(p) != nil {
			t.Error("merge of one run should be nil")
		}
		if m.Runs() != 1 {
			t.Errorf("runs = %d", m.Runs())
		}
	})
	env.Run()
}

func TestMergerFanInDefault(t *testing.T) {
	m := NewMerger(nil, "x", 0)
	if m.FanIn != DefaultFanIn {
		t.Fatalf("fan-in = %d", m.FanIn)
	}
}

func TestAccumulatorSpillCycle(t *testing.T) {
	a := NewAccumulator(100)
	a.Add(make([]byte, 60))
	if a.Over() {
		t.Fatal("not over yet")
	}
	a.Add(make([]byte, 60))
	if !a.Over() {
		t.Fatal("should be over budget")
	}
	if a.Segments() != 2 || a.Bytes() != 120 {
		t.Fatalf("segments=%d bytes=%d", a.Segments(), a.Bytes())
	}
	if streams := a.PeekStreams(); len(streams) != 2 || a.Segments() != 2 {
		t.Fatalf("PeekStreams = %d streams, %d segments left", len(streams), a.Segments())
	}
	if segs := a.TakeSegments(); len(segs) != 2 {
		t.Fatalf("segments taken = %d", len(segs))
	}
	if a.Segments() != 0 || a.Bytes() != 0 || a.Over() {
		t.Fatal("TakeSegments must clear the accumulator")
	}
	a.Add(nil) // empty segments ignored
	if a.Segments() != 0 {
		t.Fatal("empty segment must be ignored")
	}
}

// Property: merging runs written from any random sorted inputs through the
// Merger (with intermediate passes) preserves the multiset and global order.
func TestMergerPermutationProperty(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		env := sim.New()
		store := newStore(env)
		env.Go("t", func(p *sim.Proc) {
			m := NewMerger(store, "x", 2+rng.Intn(3))
			counts := map[string]int{}
			nRuns := 1 + rng.Intn(8)
			for r := 0; r < nRuns; r++ {
				n := rng.Intn(30)
				keys := make([]string, n)
				for i := range keys {
					keys[i] = fmt.Sprintf("k%02d", rng.Intn(40))
					counts[keys[i]]++
				}
				sort.Strings(keys)
				m.AddRun(WriteRun(p, store, fmt.Sprintf("x/r%d", r), encodeKeys(keys)))
				if m.NeedsPass() {
					m.MergePass(p)
				}
			}
			var prev string
			kv.MergeStreams(runStreams(p, m), nil, func(k, v []byte) {
				ks := string(k)
				if ks < prev {
					t.Errorf("trial %d: order violated", trial)
				}
				prev = ks
				counts[ks]--
			})
			for k, c := range counts {
				if c != 0 {
					t.Errorf("trial %d: key %q count off by %d", trial, k, c)
				}
			}
		})
		env.Run()
	}
}
