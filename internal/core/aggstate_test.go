package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"onepass/internal/engine"
	"onepass/internal/hashlib"
	"onepass/internal/memtable"
	"onepass/internal/sim"
	"onepass/internal/workloads"
)

// listFold is the fold of a job that declares no monoid: value-list states.
func listFold(reduce engine.ReduceFunc) *engine.Fold {
	return (&engine.Job{Name: "lists", Reduce: reduce}).Fold()
}

func TestListAggRoundTrip(t *testing.T) {
	var got []string
	agg := listFold(func(key []byte, vals [][]byte, emit engine.Emit) {
		for _, v := range vals {
			got = append(got, string(v))
		}
	})
	state := agg.Lift(nil, []byte("first"))
	state = agg.Add(state, []byte("second"))
	other := agg.Lift(nil, []byte("third"))
	state = agg.Merge(state, other)
	if n, err := agg.Finish([]byte("k"), state, nil); err != nil || n != 3 {
		t.Fatalf("Finish = %d values, %v", n, err)
	}
	if len(got) != 3 || got[0] != "first" || got[2] != "third" {
		t.Fatalf("vals = %q", got)
	}
}

func TestListAggEmptyValues(t *testing.T) {
	var got [][]byte
	agg := listFold(func(key []byte, vals [][]byte, emit engine.Emit) { got = vals })
	state := agg.Lift(nil, nil)
	state = agg.Add(state, []byte{})
	if _, err := agg.Finish([]byte("k"), state, nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 0 || len(got[1]) != 0 {
		t.Fatalf("vals = %q", got)
	}
}

// Any value list survives a state table: folded in as raw values, carried
// out and back in as a state (what eviction and reload do), and finished,
// Reduce sees exactly the values that went in.
func TestFrameIterProperty(t *testing.T) {
	f := func(vals [][]byte, cut uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var got [][]byte
		agg := listFold(func(_ []byte, vs [][]byte, _ engine.Emit) {
			for _, v := range vs {
				got = append(got, append([]byte(nil), v...))
			}
		})
		key := []byte("k")
		split := int(cut) % len(vals)
		early := newStateTable(hashlib.NewAt(1, 0), memtable.NewArena(0), agg)
		for _, v := range vals[:split] {
			early.fold(key, v, formIncoming)
		}
		st := newStateTable(hashlib.NewAt(1, 0), memtable.NewArena(0), agg)
		if s, ok := early.get(key); ok {
			st.fold(key, s, formState)
		}
		for _, v := range vals[split:] {
			st.fold(key, v, formIncoming)
		}
		s, _ := st.get(key)
		if n, err := agg.Finish(key, s, nil); err != nil || n != len(vals) || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if !bytes.Equal(got[i], vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A value-list state that comes back from a spill file short is reported by
// engine, reduce task, job and key — it used to be an index out of range
// inside the frame walk.
func TestEmitFinalReportsTruncatedState(t *testing.T) {
	env, rc := newTestReduceCtx(t, 1<<20, 2)
	job := workloads.Sessionization(smallClicks()).Job
	job.Name = "ext-test"
	rc.fold = job.Fold()
	rc.rt.EngineLabel = "hash-incremental"
	state := rc.fold.Add(rc.fold.Lift(nil, []byte("10 /a")), []byte("20 /b"))
	env.Go("t", func(p *sim.Proc) {
		defer func() {
			msg := fmt.Sprint(recover())
			for _, want := range []string{"hash-incremental", "reduce task 0", `"ext-test"`, `"hot-user"`, "not a whole number of frames"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q does not mention %q", msg, want)
				}
			}
		}()
		rc.emitFinal(p, []byte("hot-user"), state[:len(state)-2])
		t.Error("a truncated state was finalized")
	})
	env.Run()
}

func TestJobAggregatorSelection(t *testing.T) {
	withMonoid := workloads.PerUserCount(smallClicks()).Job
	if !withMonoid.Fold().Declared() {
		t.Fatal("counting workload should map-combine")
	}
	noAgg := workloads.Sessionization(smallClicks()).Job
	if noAgg.Fold().Declared() {
		t.Fatal("holistic workload must not map-combine")
	}
}

// newTestStateTable folds ASCII counts through the counting workloads'
// declared monoid.
func newTestStateTable() *stateTable {
	job := workloads.PerUserCount(smallClicks()).Job
	return newStateTable(hashlib.NewAt(1, 0), memtable.NewArena(0), job.Fold())
}

func TestStateTableFoldRawValues(t *testing.T) {
	st := newTestStateTable()
	if added := st.fold([]byte("a"), []byte("5"), formIncoming); added != 2 {
		t.Fatalf("first fold added %d bytes, want 2: the key and its element", added)
	}
	if added := st.fold([]byte("a"), []byte("7"), formIncoming); added != 1 {
		t.Fatalf("second fold added %d bytes, want 1: the element's growth from 5 to 12", added)
	}
	s, ok := st.get([]byte("a"))
	if !ok || workloads.CountState(s) != 12 {
		t.Fatalf("state = %v", s)
	}
	if st.len() != 1 {
		t.Fatalf("len = %d", st.len())
	}
}

func TestStateTableFoldStates(t *testing.T) {
	// A declared job's incoming values are map-side elements already, and
	// combine with stored states like any other element.
	st := newTestStateTable()
	mk := func(n uint64) []byte { return []byte(fmt.Sprint(n)) }
	st.fold([]byte("a"), mk(10), formIncoming)
	st.fold([]byte("a"), mk(32), formIncoming)
	st.fold([]byte("a"), mk(100), formState)
	s, _ := st.get([]byte("a"))
	if workloads.CountState(s) != 142 {
		t.Fatalf("count = %d", workloads.CountState(s))
	}
}

func TestStateTableBudgetAccounting(t *testing.T) {
	st := newTestStateTable()
	before := st.usedBytes()
	for i := 0; i < 100; i++ {
		st.fold([]byte(fmt.Sprintf("key-%03d", i)), []byte("1"), formIncoming)
	}
	grown := st.usedBytes()
	if grown <= before {
		t.Fatal("usedBytes must grow")
	}
	// Removing everything must release the live accounting even though the
	// arena keeps its allocations.
	st.iterate(func(k, s []byte) bool {
		st.remove(k) // the alias outlives the delete
		return true
	})
	if st.len() != 0 {
		t.Fatalf("len = %d after removal", st.len())
	}
	if st.usedBytes() >= grown/2 {
		t.Fatalf("usedBytes %d did not shrink after removing all keys (was %d)", st.usedBytes(), grown)
	}
}

func TestStateTableIterateMatchesFolds(t *testing.T) {
	st := newTestStateTable()
	want := map[string]uint64{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i%37)
		st.fold([]byte(k), []byte("1"), formIncoming)
		want[k]++
	}
	got := map[string]uint64{}
	st.iterate(func(k, s []byte) bool {
		got[string(k)] = workloads.CountState(s)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("keys = %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s = %d, want %d", k, got[k], v)
		}
	}
}

// Elements live in the arena side by side with each other and with keys, and
// a fold is handed its element with the capacity clipped to the region that
// holds it. Whatever the monoid does — grow in place until the region is
// full and carry on in fresh storage (postings, the free monoid's framed
// append), or build every result somewhere else (top-k) — it must never
// write outside that region, and a region an element moved out of must not
// be handed to a second element while the first still reads it: after every
// fold, every key still finds its element, and every element equals the one
// a plain heap fold of the same values gives. (That live regions never
// overlap is checked from inside, in memtable's table programs.)
func TestElementPlacementStaysInsideItsRegion(t *testing.T) {
	posting := func(doc, pos int) []byte {
		return []byte{0, 0, byte(doc >> 8), byte(doc), 0, 0, byte(pos >> 8), byte(pos)}
	}
	for _, tc := range []struct {
		name string
		job  engine.Job
		val  func(i int) []byte
	}{
		// Mostly ascending postings (the append fast path) with every
		// seventh out of order (the merge-from-the-back path).
		{"grows in place/postings", engine.Job{Monoid: workloads.PostingsMonoid{}}, func(i int) []byte {
			if i%7 == 3 {
				return posting(i/2, i%50)
			}
			return posting(i, i%50)
		}},
		// Fixed-width entries, so a list only ever grows.
		{"fresh storage/top-k", engine.Job{Monoid: workloads.TopKMonoid{K: 4}}, func(i int) []byte {
			return []byte(fmt.Sprintf("%d name-%04d\n", 100+(i*37)%900, i%11))
		}},
		// Values up to 300 bytes: one- and two-byte frame lengths.
		{"free monoid", engine.Job{}, func(i int) []byte {
			return bytes.Repeat([]byte{byte('a' + i%26)}, (i*i)%300)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.job.Name = tc.name
			tc.job.Reduce = func([]byte, [][]byte, engine.Emit) {}
			fold := tc.job.Fold()
			st := newStateTable(hashlib.NewAt(1, 0), memtable.NewArena(0), fold)
			model := map[string][]byte{}
			check := func(step int) {
				for k, want := range model {
					got, ok := st.get([]byte(k))
					if !ok || !bytes.Equal(got, want) {
						t.Fatalf("step %d: %s = %q (found %v), want %q", step, k, got, ok, want)
					}
				}
			}
			for i := 0; i < 1500; i++ {
				k := fmt.Sprintf("key-%02d", (i*13)%29)
				v := tc.val(i)
				f := formIncoming
				if i%10 == 9 {
					v, f = fold.Lift(nil, v), formState // an evicted state coming back
				}
				st.fold([]byte(k), v, f)
				switch cur, seen := model[k]; {
				case !seen && f == formState:
					model[k] = bytes.Clone(v)
				case !seen:
					model[k] = fold.Lift(nil, v)
				case f == formState:
					model[k] = fold.Merge(bytes.Clone(cur), v)
				default:
					model[k] = fold.Add(bytes.Clone(cur), v)
				}
				check(i)
			}
			var sum int64
			for k, s := range model {
				sum += int64(len(k)) + int64(len(s)) + stateSliceOverhead
			}
			if got := st.keyBytes + st.stateBytes; got != sum {
				t.Fatalf("budget model counts %d live bytes, the table holds %d", got, sum)
			}
		})
	}
}
