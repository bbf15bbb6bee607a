package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/enginetest"
	"onepass/internal/faults"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/workloads"
)

// Pushed chunks alias the frame the map-output file holds (and each other's
// neighbourhood in it), so no reduce-side structure may retain or write
// through a chunk slice. The test folds chunks through every reducer, ample
// and starved of memory (so spill sets, demotions and evictions see chunk
// bytes too), overwrites each chunk the moment ingest returns, and demands
// the right answer. It fails if anything on the way keeps chunk bytes instead
// of copying them: engine.Fold.Into placing a first element or appending to
// a stored one (both land in the table's arena), Table.Slot's arena copy of a
// new key, spillSet.add's encode into its bucket buffer.
func TestReducersCopyOutOfIngestedChunks(t *testing.T) {
	counting := workloads.PerUserCount(smallClicks()).Job // monoid: incoming values are states
	holistic := counting                                  // undeclared: framed lists of raw values
	holistic.Monoid = nil
	holistic.Reduce = func(key []byte, vals [][]byte, emit engine.Emit) {
		ss := make([]string, len(vals))
		for i, v := range vals {
			ss[i] = string(v)
		}
		sort.Strings(ss)
		emit(key, []byte(strings.Join(ss, ",")))
	}

	// Three chunks over 120 keys; every key recurs in every chunk, so each
	// table sees first inserts (Init / state copy) and merges into stored
	// states, and ASCII counts grow a digit (9+1) in place.
	const keys = 120
	var chunks [][]byte
	wantCount := map[string]string{}
	wantList := map[string]string{}
	lists := map[string][]string{}
	for c := 0; c < 3; c++ {
		var enc []byte
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("user-%04d", i)
			v := fmt.Sprint(3 + c + i%7)
			enc = kv.AppendPair(enc, []byte(k), []byte(v))
			lists[k] = append(lists[k], v)
		}
		chunks = append(chunks, enc)
	}
	for k, vs := range lists {
		n := 0
		for _, v := range vs {
			var x int
			fmt.Sscan(v, &x)
			n += x
		}
		wantCount[k] = fmt.Sprint(n)
		sort.Strings(vs)
		wantList[k] = strings.Join(vs, ",")
	}

	for _, mode := range []Mode{HybridHash, Incremental, HotKey} {
		for _, budget := range []int64{1 << 30, 2 << 10} {
			for name, tc := range map[string]struct {
				job  engine.Job
				want map[string]string
			}{"monoid": {counting, wantCount}, "holistic": {holistic, wantList}} {
				t.Run(fmt.Sprintf("%s/%s/budget=%d", mode, name, budget), func(t *testing.T) {
					env := sim.New()
					ccfg := cluster.DefaultConfig()
					ccfg.Nodes = 2
					cl := cluster.New(env, ccfg)
					rt := engine.NewRuntime(env, cl, dfs.New(cl, 64<<10, 1))
					job := tc.job
					job.Name, job.OutputPath = "scribble", "out/scribble"
					job.Reducers = 1
					job.RetainOutput = true
					res := &engine.Result{}
					oc := rt.NewOutputCollector(&job, res)
					opts := Plan(mode).Defaults
					opts.SpillBuckets, opts.HotKeyCounters = 4, 16
					rc := newReduceCtx(&hashJob{
						JobRun: &engine.JobRun{RT: rt, Job: &job, Opts: opts, Costs: engine.DefaultCosts(), OC: oc},
					}, cl.Node(0), 0)
					rc.budget = budget
					h := newHashReducer(rc, mode)
					env.Go("reduce", func(p *sim.Proc) {
						for _, c := range chunks {
							c = append([]byte(nil), c...)
							h.ingest(p, c)
							for i := range c {
								c[i] = 0xFF // the frame's bytes are not the reducer's to keep
							}
						}
						h.finalize(p)
						oc.Close(p, 0)
					})
					env.Run()
					oc.Materialize()
					if budget < 1<<20 && rt.Counters.Get(engine.CtrReduceSpillBytes) == 0 {
						t.Error("the starved variant never spilled: spill sets went untested")
					}
					if len(res.Output) != len(tc.want) {
						t.Fatalf("%d keys out, want %d", len(res.Output), len(tc.want))
					}
					for k, v := range tc.want {
						if res.Output[k] != v {
							t.Fatalf("%s = %q, want %q: a fold kept a slice of an ingested chunk", k, res.Output[k], v)
						}
					}
				})
			}
		}
	}
}

// A faulted run over blocks far smaller than a chunk: the recovered attempt
// rebuilds its frame on another node and must serve exactly the chunk tail
// the lost attempt never delivered — same identities, same bytes — through a
// push shuffle.
func TestSmallBlockFaultedRunMatchesClean(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		mk   func() *workloads.Workload
	}{
		{Incremental, func() *workloads.Workload { return workloads.PerUserCount(smallClicks()) }},
		{HotKey, func() *workloads.Workload { return workloads.Sessionization(smallClicks()) }},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			enginetest.CheckFaultedMatchesClean(t, tc.mk,
				enginetest.Config{Nodes: 4, BlockSize: 16 << 10, InputSize: 96 * 16 << 10, Reducers: 10},
				func(f *enginetest.Fixture, sched faults.Schedule) (*engine.Result, error) {
					return Run(f.RT, f.Job, tc.mode, engine.Options{Faults: sched})
				})
		})
	}
}

// Every hash-path allocation must be proportional to the bytes it holds, not
// to an option's default: a job over small blocks with many reducers used to
// clear a ChunkBytes-sized buffer per partition per block and a 256 KB arena
// slab per state table, and the hot-key sketch its full counter set per
// reducer. These cases measure 1.3-6.2x their input plus map-output bytes
// (keys and states in arena slabs); with per-key heap states they measured
// 3.5-8x, and before allocation followed the data 40-200x.
func TestAllocationProportionalToData(t *testing.T) {
	perUser := func() *workloads.Workload { return workloads.PerUserCount(smallClicks()) }
	sessions := func() *workloads.Workload { return workloads.Sessionization(smallClicks()) }
	// Each case has its own bound, a margin above what it reads: a declared
	// job's map output goes from emit to frame in one copy (3.7x and 1.3x),
	// an undeclared one's through a map-output buffer (4.7x and 5.1x). The
	// first read 4.0x while a growing table copied its entries.
	for _, tc := range []struct {
		name     string
		mode     Mode
		mk       func() *workloads.Workload
		block    int64
		reducers int
		bound    float64
	}{
		{"per-user-count/16KB/10", Incremental, perUser, 16 << 10, 10, 4.5},
		{"per-user-count/128KB/20", Incremental, perUser, 128 << 10, 20, 2},
		{"sessionization/16KB/10", HotKey, sessions, 16 << 10, 10, 5.5},
		{"sessionization/128KB/20", HybridHash, sessions, 128 << 10, 20, 5.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enginetest.CheckAllocationProportional(t, tc.mk(), enginetest.Config{
				Nodes: 4, BlockSize: tc.block, InputSize: 16 * tc.block, Reducers: tc.reducers}, tc.bound,
				func(f *enginetest.Fixture) (*engine.Result, error) {
					return Run(f.RT, f.Job, tc.mode, engine.Options{})
				})
		})
	}
}

// spillSet.add runs once per spilled pair: at steady state (bucket buffer
// grown, no flush due) it must encode straight into the buffer.
func TestSpillAddAllocatesNothing(t *testing.T) {
	env, rc := newTestReduceCtx(t, 1<<20, 4)
	env.Go("t", func(p *sim.Proc) {
		ss := newSpillSet(rc, 0, "t")
		key, payload := []byte("user-0001"), bytes.Repeat([]byte("s"), 40)
		for ss.files[0] == nil { // fill bucket 0 through its first flush
			ss.add(p, 0, key, payload, formState)
		}
		if cap(ss.bufs[0]) < spillBufSize {
			t.Fatalf("bucket buffer kept %d bytes of capacity across its flush", cap(ss.bufs[0]))
		}
		if avg := testing.AllocsPerRun(200, func() { ss.add(p, 0, key, payload, formState) }); avg != 0 {
			t.Errorf("spillSet.add allocates %.1f/op at steady state, budget 0", avg)
		}
	})
	env.Run()
}

// emitFinal runs once per finalized key: the callback it hands the
// aggregator is built per process, not per key (it was the largest
// allocation site of a fleet of small jobs), and the monoid path's emit of
// discarded output only counts the pair's size into the writer state.
func TestEmitFinalAllocatesNothingPerKey(t *testing.T) {
	env, rc := newTestReduceCtx(t, 1<<20, 4)
	rc.job.DiscardOutput = true
	rc.oc = rc.rt.NewOutputCollector(rc.job, &engine.Result{})
	env.Go("t", func(p *sim.Proc) {
		key, state := []byte("user-0001"), []byte("42")
		rc.emitFinal(p, key, state) // creates the writer, binds the callback
		if avg := testing.AllocsPerRun(200, func() { rc.emitFinal(p, key, state) }); avg != 0 {
			t.Errorf("emitFinal allocates %.1f/key at steady state, budget 0", avg)
		}
		rc.oc.Close(p, 0)
	})
	env.Run()
}
