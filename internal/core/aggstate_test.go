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
	if !st.fold([]byte("a"), []byte("5"), formIncoming) {
		t.Fatal("first fold should report new")
	}
	if st.fold([]byte("a"), []byte("7"), formIncoming) {
		t.Fatal("second fold should not report new")
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
		st.remove(append([]byte(nil), k...))
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
