package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"onepass/internal/sim"
	"onepass/internal/trace"
)

// finalizeJob returns an undeclared job whose Reduce keeps scratch, as the
// workloads' do, and emits one pair per value; a key that starts "abort"
// calls Abort after its second pair.
func finalizeJob(discard, retain bool) *Job {
	var mk func() Job
	mk = func() Job {
		var scratch []byte
		return Job{
			Name: "fin", OutputPath: "fin", Reducers: 2, DiscardOutput: discard, RetainOutput: retain,
			Reduce: func(key []byte, vals [][]byte, emit Emit) {
				for i, v := range vals {
					if i == 2 && bytes.HasPrefix(key, []byte("abort")) {
						Abort(fmt.Errorf("key %q aborts", key))
					}
					scratch = append(append(scratch[:0], v...), '!')
					emit(key, scratch)
				}
			},
			Fresh: mk,
		}
	}
	j := mk()
	return &j
}

// sliceWalk is a KeyWalk over keys and states held in slices.
type sliceWalk struct{ keys, states [][]byte }

func (w *sliceWalk) Walk(from int, visit func(key, state []byte) bool) int {
	for i := from; i < len(w.keys); i++ {
		if !visit(w.keys[i], w.states[i]) {
			return i + 1
		}
	}
	return -1
}

// finalizeKeys returns n keys of reducer r with value-list states of 0 to 8
// values; every 40th key holds a 50 KB value, so that pairs cross the
// write-behind flush size inside and between batches. bad names a key whose
// state is cut short (not a whole number of frames), -1 none; abort one
// whose Reduce aborts.
func finalizeKeys(r, n, bad, abort int) *sliceWalk {
	fold := (&Job{Reduce: func([]byte, [][]byte, Emit) {}}).Fold()
	w := &sliceWalk{}
	for i := range n {
		key := fmt.Sprintf("r%d-key-%04d", r, i)
		if i == abort {
			key = "abort-" + key
		}
		var state []byte
		for v := range i % 9 {
			val := []byte(fmt.Sprintf("v%d.%d", i, v))
			if i%40 == 39 && v == 0 {
				val = bytes.Repeat([]byte{'x'}, 50<<10)
			}
			state = fold.Lift(state, val)
		}
		if i == bad {
			state = state[:len(state)-1]
		}
		w.keys, w.states = append(w.keys, []byte(key)), append(w.states, state)
	}
	return w
}

// finalizeRun is everything observable of one finalize.
type finalizeRun struct {
	res    Result
	events []trace.Event
	files  []string
	end    sim.Time
	err    string
}

// runFinalize finishes two reducers' keys at once on a fresh collector —
// through Finalize, or per key on the event loop as the engines did before
// it: Finish with one Emit per pair, Fail on an error, then the key's
// charge — and closes both.
func runFinalize(t *testing.T, job *Job, sink bool, walks [2]*sliceWalk, workers int, finalize bool) finalizeRun {
	t.Helper()
	rt := testRuntime(2)
	rt.Env.SetWorkers(workers)
	log := trace.NewLog()
	rt.Tracer = log
	var run finalizeRun
	oc := rt.NewOutputCollector(job, &run.res)
	var sunk [2][]byte
	if sink {
		// A sink that keeps each commit and blocks, as a DFS commit does.
		oc.NewSink = func(r, nodeID int) func(p *sim.Proc, data []byte) {
			return func(p *sim.Proc, data []byte) {
				p.Sleep(sim.Duration(len(data) - len(sunk[r])))
				sunk[r] = data
			}
		}
	}
	cost := KeyCost{PerKeyNs: 7, PerValueNs: 60, PerStateByteNs: 0.5}
	for r, keys := range walks {
		rt.Env.Go(fmt.Sprintf("reduce-%d", r), func(p *sim.Proc) {
			fold := job.Fold()
			if finalize {
				oc.Finalize(p, r, r, fold, keys, cost)
			} else {
				emit := func(k, v []byte) { oc.Emit(p, r, r, k, v) }
				for i, key := range keys.keys {
					n, err := fold.Finish(key, keys.states[i], emit)
					if err != nil {
						rt.Fail(p, &TaskError{Job: job.Name, Kind: "reduce", Task: r, Err: err})
					}
					rt.Cluster.Node(r).Compute(p, cost.of(n, len(keys.states[i])), PhaseReduce)
				}
			}
			oc.Close(p, r)
		})
	}
	if err := Drive(rt.Env); err != nil {
		// A failed run reports no Result, so the checksum's partial sum is
		// nobody's: a batch adds its pairs' terms when its replay starts,
		// the per-key path each pair's after its charge.
		run.err, run.res.OutputChecksum = err.Error(), 0
	}
	if rt.Env.LiveCount() != 0 {
		t.Fatalf("%d processes live after the run", rt.Env.LiveCount())
	}
	if run.err == "" {
		oc.Materialize()
	}
	run.events, run.end = log.Events(), rt.Env.Now()
	for r := range walks {
		if sink {
			run.files = append(run.files, string(sunk[r]))
			continue
		}
		blocks, err := rt.DFS.Blocks(fmt.Sprintf("fin/part-r-%05d", r))
		if err != nil || len(blocks) == 0 {
			run.files = append(run.files, "absent")
			continue
		}
		run.files = append(run.files, string(blocks[0].Peek()))
	}
	return run
}

// Finalize is defined as a Finish, an Emit per pair and the key's charge per
// key on the event loop: the Result, every trace event, the part files (or
// a blocking sink's commits) and the instant the reducers finish are the
// same, inline and on a pool, kept or discarded, over a walk of one batch,
// of many and of none; and a key
// that fails ends the run at the same instant with the same error, after
// the same pairs — a damaged state through Fail, an Abort from Reduce
// mid-key as it was raised.
func TestFinalizeMatchesPerKeyEmit(t *testing.T) {
	modes := []struct {
		name                  string
		discard, retain, sink bool
	}{{"kept", false, false, false}, {"retain", false, true, false}, {"sink", false, true, true}, {"discard", true, false, false}}
	cases := []struct {
		name       string
		n          [2]int
		bad, abort int
	}{
		{"none", [2]int{0, 0}, -1, -1},
		{"one-batch", [2]int{5, 3}, -1, -1},
		{"many-batches", [2]int{300, 170}, -1, -1},
		{"damaged-state", [2]int{300, 170}, 123, -1},
		{"abort-mid-key", [2]int{300, 170}, -1, 205},
	}
	for _, mode := range modes {
		for _, tc := range cases {
			t.Run(mode.name+"/"+tc.name, func(t *testing.T) {
				walks := func() [2]*sliceWalk {
					return [2]*sliceWalk{finalizeKeys(0, tc.n[0], tc.bad, tc.abort), finalizeKeys(1, tc.n[1], -1, -1)}
				}
				want := runFinalize(t, finalizeJob(mode.discard, mode.retain), mode.sink, walks(), 1, false)
				if (tc.bad >= 0 || tc.abort >= 0) != (want.err != "") {
					t.Fatalf("the per-key run ended with error %q", want.err)
				}
				for _, workers := range []int{1, 4} {
					got := runFinalize(t, finalizeJob(mode.discard, mode.retain), mode.sink, walks(), workers, true)
					if got.err != want.err {
						t.Errorf("workers %d: error %q, per-key %q", workers, got.err, want.err)
					}
					if !reflect.DeepEqual(got.res, want.res) {
						t.Errorf("workers %d: Result differs:\nfinalize %+v\nper-key  %+v", workers, got.res, want.res)
					}
					if !reflect.DeepEqual(got.events, want.events) {
						t.Errorf("workers %d: %d trace events, per-key %d, or different ones", workers, len(got.events), len(want.events))
					}
					if !reflect.DeepEqual(got.files, want.files) {
						t.Errorf("workers %d: part files differ", workers)
					}
					if got.end != want.end {
						t.Errorf("workers %d: finished at %v, per-key at %v", workers, got.end, want.end)
					}
				}
				if tc.bad >= 0 && !strings.Contains(want.err, "not a whole number of frames") ||
					tc.abort >= 0 && !strings.Contains(want.err, "aborts") {
					t.Errorf("error %q does not say why the key failed", want.err)
				}
			})
		}
	}
}
