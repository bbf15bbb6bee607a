package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"onepass/internal/engine"
	"onepass/internal/hashlib"
	"onepass/internal/memtable"
	"onepass/internal/workloads"
)

func TestListAggRoundTrip(t *testing.T) {
	var got [][]byte
	agg := listAgg{reduce: func(key []byte, vals [][]byte, emit engine.Emit) {
		got = vals
	}}
	state := agg.Init([]byte("first"))
	state = agg.Update(state, []byte("second"))
	other := agg.Init([]byte("third"))
	state = agg.Merge(state, other)
	agg.Final([]byte("k"), state, nil)
	if len(got) != 3 || string(got[0]) != "first" || string(got[2]) != "third" {
		t.Fatalf("vals = %q", got)
	}
}

func TestListAggEmptyValues(t *testing.T) {
	var got [][]byte
	agg := listAgg{reduce: func(key []byte, vals [][]byte, emit engine.Emit) { got = vals }}
	state := agg.Init(nil)
	state = agg.Update(state, []byte{})
	agg.Final([]byte("k"), state, nil)
	if len(got) != 2 || len(got[0]) != 0 || len(got[1]) != 0 {
		t.Fatalf("vals = %q", got)
	}
}

func TestFrameIterProperty(t *testing.T) {
	f := func(vals [][]byte) bool {
		var state []byte
		for _, v := range vals {
			state = frameAppend(state, v)
		}
		var got [][]byte
		n := frameIter(state, func(v []byte) { got = append(got, append([]byte(nil), v...)) })
		if n != len(vals) || len(got) != len(vals) {
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

func TestJobAggregatorSelection(t *testing.T) {
	withMonoid := workloads.PerUserCount(smallClicks()).Job
	agg, combined := jobAggregator(&withMonoid)
	if !combined {
		t.Fatal("counting workload should map-combine")
	}
	ma, ok := agg.(engine.MonoidAgg)
	if !ok {
		t.Fatalf("agg = %T", agg)
	}
	if _, ok := ma.M.(workloads.CountMonoid); !ok {
		t.Fatalf("monoid = %T", ma.M)
	}
	withAgg := withMonoid
	withAgg.Monoid, withAgg.Agg = nil, workloads.CountAgg{}
	aggExp, combinedExp := jobAggregator(&withAgg)
	if !combinedExp {
		t.Fatal("explicit aggregator should map-combine")
	}
	if _, ok := aggExp.(workloads.CountAgg); !ok {
		t.Fatalf("agg = %T", aggExp)
	}
	noAgg := workloads.Sessionization(smallClicks()).Job
	agg2, combined2 := jobAggregator(&noAgg)
	if combined2 {
		t.Fatal("holistic workload must not map-combine")
	}
	if _, ok := agg2.(listAgg); !ok {
		t.Fatalf("agg = %T", agg2)
	}
}

func newTestStateTable(mapComb bool) *stateTable {
	agg := engine.Aggregator(workloads.CountAgg{})
	return newStateTable(hashlib.NewAt(1, 0), memtable.NewArena(0), agg, mapComb)
}

func TestStateTableFoldRawValues(t *testing.T) {
	st := newTestStateTable(false)
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
	// mapComb: incoming values are already binary states, folded via Merge.
	st := newTestStateTable(true)
	mk := func(n uint64) []byte {
		agg := workloads.CountAgg{}
		return agg.Init([]byte(fmt.Sprint(n)))
	}
	st.fold([]byte("a"), mk(10), formIncoming)
	st.fold([]byte("a"), mk(32), formIncoming)
	st.fold([]byte("a"), mk(100), formState) // explicit state form always merges
	s, _ := st.get([]byte("a"))
	if workloads.CountState(s) != 142 {
		t.Fatalf("count = %d", workloads.CountState(s))
	}
}

func TestStateTableBudgetAccounting(t *testing.T) {
	st := newTestStateTable(false)
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
	st := newTestStateTable(false)
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
