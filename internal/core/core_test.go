package core

import (
	"fmt"
	"strconv"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/enginetest"
	"onepass/internal/faults"
	"onepass/internal/gen"
	"onepass/internal/hadoop"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/trace"
	"onepass/internal/workloads"
)

func smallClicks() gen.ClickConfig {
	cfg := gen.DefaultClickConfig()
	cfg.Users = 300
	cfg.URLs = 150
	return cfg
}

func smallDocs() gen.DocConfig {
	cfg := gen.DefaultDocConfig()
	cfg.Vocab = 400
	cfg.WordsPerDoc = 60
	return cfg
}

// Run executes job on rt with the hash engine's technique m, alone on rt's
// environment.
func Run(rt *engine.Runtime, job engine.Job, m Mode, opts engine.Options) (*engine.Result, error) {
	return engine.Run(rt, job, opts, Plan(m))
}

func run(t *testing.T, w *workloads.Workload, cfg enginetest.Config, m Mode, opts engine.Options) (*enginetest.Fixture, *engine.Result) {
	t.Helper()
	f := enginetest.New(t, w, cfg)
	res, err := Run(f.RT, f.Job, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

// Every mode x every workload must match the reference output exactly.
func TestAllModesAllWorkloadsMatchReference(t *testing.T) {
	for _, mode := range []Mode{HybridHash, Incremental, HotKey} {
		for _, mk := range []func() *workloads.Workload{
			func() *workloads.Workload { return workloads.Sessionization(smallClicks()) },
			func() *workloads.Workload { return workloads.PageFrequency(smallClicks()) },
			func() *workloads.Workload { return workloads.PerUserCount(smallClicks()) },
			func() *workloads.Workload { return workloads.InvertedIndex(smallDocs()) },
		} {
			w := mk()
			t.Run(fmt.Sprintf("%s/%s", mode, w.Name), func(t *testing.T) {
				f, res := run(t, w, enginetest.Config{}, mode, engine.Options{})
				f.CheckOutput(t, w, res)
			})
		}
	}
}

// The same matrix under severe memory pressure: spills, evictions, and
// external hashing must not corrupt results. manyClicks uses enough
// distinct users that per-key states cannot fit a 16 KB budget.
func manyClicks() gen.ClickConfig {
	cfg := gen.DefaultClickConfig()
	cfg.Users = 8000
	cfg.URLs = 150
	cfg.UserSkew = 1.05
	return cfg
}

func TestAllModesUnderMemoryPressure(t *testing.T) {
	for _, mode := range []Mode{HybridHash, Incremental, HotKey} {
		for _, mk := range []func() *workloads.Workload{
			func() *workloads.Workload { return workloads.Sessionization(manyClicks()) },
			func() *workloads.Workload { return workloads.PerUserCount(manyClicks()) },
		} {
			w := mk()
			t.Run(fmt.Sprintf("%s/%s", mode, w.Name), func(t *testing.T) {
				f, res := run(t, w, enginetest.Config{MemPerTask: 16 << 10, Reducers: 2},
					mode, engine.Options{SpillBuckets: 4, HotKeyCounters: 32})
				f.CheckOutput(t, w, res)
				if res.Counters.Get(engine.CtrReduceSpillBytes) == 0 {
					t.Error("expected reduce-side spills under a 16KB budget")
				}
			})
		}
	}
	// Both arrival paths under eviction: a push queue small enough that
	// backpressure sends some partitions down the pull path, so the push
	// process and the puller fold into one reducer's tables and each may
	// suspend mid-eviction while the other runs.
	for _, mode := range []Mode{HybridHash, Incremental, HotKey} {
		for _, mk := range []func() *workloads.Workload{
			func() *workloads.Workload { return workloads.Sessionization(manyClicks()) },
			func() *workloads.Workload { return workloads.PerUserCount(manyClicks()) },
			func() *workloads.Workload { return workloads.InvertedIndex(smallDocs()) },
		} {
			for _, bp := range []int64{2 << 10, 8 << 10, 32 << 10} {
				for _, mem := range []int64{8 << 10, 16 << 10, 64 << 10} {
					w := mk()
					name := fmt.Sprintf("both-paths/%s/%s/bp=%dKB/mem=%dKB", mode, w.Name, bp>>10, mem>>10)
					t.Run(name, func(t *testing.T) {
						checkBothArrivalPaths(t, w, mode, bp, mem, 1)
					})
				}
			}
			// With the pool on, a process that resumes mid-eviction must not
			// touch the tables while the other's fold runs on a worker: the
			// race detector's case.
			w := mk()
			t.Run(fmt.Sprintf("both-paths-pooled/%s/%s", mode, w.Name), func(t *testing.T) {
				checkBothArrivalPaths(t, w, mode, 2<<10, 8<<10, 2)
			})
		}
	}
}

func checkBothArrivalPaths(t *testing.T, w *workloads.Workload, mode Mode, bp, mem int64, workers int) {
	// 12 nodes mapping 96 blocks of 16 KB into 2 reducers: per-user-count's
	// combined partitions are small, and with fewer mappers at once they
	// never back up a 32 KB push queue.
	f := enginetest.New(t, w, enginetest.Config{Nodes: 12, BlockSize: 16 << 10, InputSize: 96 * 16 << 10,
		Reducers: 2, MemPerTask: mem})
	f.RT.Env.SetWorkers(workers)
	f.RT.Audit = engine.NewAudit()
	log := trace.NewLog()
	f.RT.Tracer = log
	res, err := Run(f.RT, f.Job, mode, engine.Options{BackpressureBytes: bp, ChunkBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f.CheckOutput(t, w, res)
	if len(res.AuditFailures) > 0 {
		t.Fatalf("audit:\n%s", engine.FormatAuditFailures(res.AuditFailures))
	}
	if n := f.RT.Env.LiveCount(); n != 0 {
		t.Fatalf("%d live processes after the run", n)
	}
	if res.Counters.Get(engine.CtrReduceSpillBytes) == 0 {
		t.Errorf("no reduce-side spill under a %d KB budget", mem>>10)
	}
	pulled := 0
	for _, ev := range log.Events() {
		if ev.Type != trace.ShuffleTransfer {
			continue
		}
		for _, a := range ev.Args {
			if a.Key == "mode" && a.Str == "pull" {
				pulled++
			}
		}
	}
	if pulled == 0 {
		t.Error("no partition took the pull path: only one arrival path ran")
	}
}

func TestNoSortingCPU(t *testing.T) {
	w := workloads.Sessionization(smallClicks())
	_, res := run(t, w, enginetest.Config{}, Incremental, engine.Options{})
	if res.CPU.Seconds(engine.PhaseSort) != 0 {
		t.Fatalf("hash engine charged %v s of sort CPU", res.CPU.Seconds(engine.PhaseSort))
	}
	if res.Counters.Get(engine.CtrSortComparisons) != 0 {
		t.Fatal("hash engine counted sort comparisons")
	}
	if res.Counters.Get(engine.CtrHashOps) == 0 {
		t.Fatal("hash ops not counted")
	}
}

func TestIncrementalNoSpillWhenMemoryAmple(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	_, res := run(t, w, enginetest.Config{MemPerTask: 1 << 30}, Incremental, engine.Options{})
	if res.Counters.Get(engine.CtrReduceSpillBytes) != 0 {
		t.Fatalf("spilled %v bytes with ample memory", res.Counters.Get(engine.CtrReduceSpillBytes))
	}
}

func TestIncrementalFasterThanHadoopFirstOutput(t *testing.T) {
	// The hash engine's first answer arrives well before Hadoop's: no
	// blocking merge in front of the reduce function.
	// Sessionization at a size where the sort-merge pipeline's buffer sort
	// and merge actually cost something.
	cfg := enginetest.Config{InputSize: 2 << 20, MemPerTask: 64 << 10, Reducers: 2}
	w1 := workloads.Sessionization(smallClicks())
	f1 := enginetest.New(t, w1, cfg)
	hashRes, err := Run(f1.RT, f1.Job, Incremental, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w2 := workloads.Sessionization(smallClicks())
	f2 := enginetest.New(t, w2, cfg)
	hRes, err := engine.Run(f2.RT, f2.Job, engine.Options{}, hadoop.Plan)
	if err != nil {
		t.Fatal(err)
	}
	// Makespans round up to the 1s sampler tick at this tiny scale, so
	// compare the un-rounded observables: first-answer latency and CPU.
	if hashRes.FirstOutputAt >= hRes.FirstOutputAt {
		t.Errorf("hash first output %v not before hadoop %v", hashRes.FirstOutputAt, hRes.FirstOutputAt)
	}
	if hashRes.CPU.Total() >= hRes.CPU.Total() {
		t.Errorf("hash CPU %.2fs not below hadoop %.2fs", hashRes.CPU.Total(), hRes.CPU.Total())
	}
}

func TestEmitWhenThresholdFiresEarly(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	job := w.Job
	const threshold = 50
	job.EmitWhen = func(key, state []byte) bool {
		return workloads.CountState(state) >= threshold
	}
	f := enginetest.New(t, w, enginetest.Config{})
	f.Job.EmitWhen = job.EmitWhen
	res, err := Run(f.RT, f.Job, Incremental, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Some user must cross the threshold before the last map finishes.
	_, mapEnd, _ := res.Timeline.PhaseWindow(engine.SpanMap)
	if res.FirstOutputAt >= mapEnd {
		t.Fatalf("threshold answer at %v, maps ended %v — not incremental", res.FirstOutputAt, mapEnd)
	}
}

func TestHotKeySpillsLessThanIncremental(t *testing.T) {
	// Zipf-skewed per-user counting with memory far below the key-state
	// volume: cold-first eviction must not spill more than blind bucket
	// eviction, and both must stay correct.
	mem := int64(16 << 10)
	clicks := manyClicks()
	clicks.UserSkew = 1.5 // hot keys must exist for pinning to pay
	w1 := workloads.PerUserCount(clicks)
	_, inc := run(t, w1, enginetest.Config{MemPerTask: mem, Reducers: 2, InputSize: 512 << 10},
		Incremental, engine.Options{SpillBuckets: 8})
	w2 := workloads.PerUserCount(clicks)
	f2, hot := run(t, w2, enginetest.Config{MemPerTask: mem, Reducers: 2, InputSize: 512 << 10},
		HotKey, engine.Options{SpillBuckets: 8, HotKeyCounters: 512})
	f2.CheckOutput(t, workloads.PerUserCount(clicks), hot)
	incSpill := inc.Counters.Get(engine.CtrReduceSpillBytes)
	hotSpill := hot.Counters.Get(engine.CtrReduceSpillBytes)
	if incSpill == 0 {
		t.Fatal("incremental should have spilled at this budget")
	}
	if float64(hotSpill) > 1.05*float64(incSpill) {
		t.Fatalf("hot-key spill %v exceeds incremental %v", hotSpill, incSpill)
	}
	if hot.Counters.Get("core.hotkey.evictions") == 0 {
		t.Fatal("hot-key engine never evicted — budget not exercised")
	}
}

func TestHotKeyApproximateEarlySnapshot(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	f, res := run(t, w, enginetest.Config{MemPerTask: 16 << 10, Reducers: 2},
		HotKey, engine.Options{ApproximateEarly: true, SpillBuckets: 4, HotKeyCounters: 64})
	if len(res.Snapshots) == 0 {
		t.Fatal("no early hot-key snapshot")
	}
	f.CheckOutput(t, w, res) // exact completion must still hold
}

func TestHybridHashIsBlocking(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	_, res := run(t, w, enginetest.Config{}, HybridHash, engine.Options{})
	_, mapEnd, _ := res.Timeline.PhaseWindow(engine.SpanMap)
	if res.FirstOutputAt < mapEnd {
		t.Fatalf("hybrid hash emitted at %v before maps ended %v", res.FirstOutputAt, mapEnd)
	}
}

func TestMapSideCombineShrinksShuffle(t *testing.T) {
	w := workloads.PageFrequency(smallClicks())
	_, res := run(t, w, enginetest.Config{}, Incremental, engine.Options{})
	shuffle := res.Counters.Get(engine.CtrShuffleBytes)
	mapIn := res.Counters.Get(engine.CtrMapInputBytes)
	if shuffle > mapIn/10 {
		t.Fatalf("map-side hash combine left shuffle at %v of %v input bytes", shuffle, mapIn)
	}
}

func TestDeterministic(t *testing.T) {
	r := func() *engine.Result {
		w := workloads.PerUserCount(smallClicks())
		_, res := run(t, w, enginetest.Config{}, HotKey, engine.Options{})
		return res
	}
	a, b := r(), r()
	if a.Makespan != b.Makespan || a.OutputPairs != b.OutputPairs {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a.Makespan, a.OutputPairs, b.Makespan, b.OutputPairs)
	}
}

func TestModeString(t *testing.T) {
	if HybridHash.String() != "hybrid-hash" || Incremental.String() != "incremental" ||
		HotKey.String() != "hot-key" || Mode(99).String() == "" {
		t.Fatal("mode strings broken")
	}
}

// TestHotKeyEarlyAnswersApproximateButClose captures the §V claim that the
// hot-key technique "can return (approximate) results for these keys as
// early as when all the input data has arrived": early emissions may
// undercount (contributions that passed through a cold phase are
// reconciled later) but never overcount, and for the dominant keys they
// carry most of the mass.
func TestHotKeyEarlyAnswersApproximateButClose(t *testing.T) {
	clicks := manyClicks()
	clicks.UserSkew = 1.5
	w := workloads.PerUserCount(clicks)
	f := enginetest.New(t, w, enginetest.Config{MemPerTask: 16 << 10, Reducers: 2, InputSize: 512 << 10})
	res, err := Run(f.RT, f.Job, HotKey, engine.Options{ApproximateEarly: true,
		SpillBuckets: 8, HotKeyCounters: 512})
	if err != nil {
		t.Fatal(err)
	}
	f.CheckOutput(t, w, res)
	if len(res.Snapshots) == 0 {
		t.Fatal("no early snapshot")
	}
	// Early output was written under <output>/early/; read it back and
	// compare against the exact final counts: early never overcounts, and
	// for the keys it covers it carries most of the mass.
	early := map[string]uint64{}
	for r := 0; r < 2; r++ {
		path := fmt.Sprintf("%s/early/part-r-%05d", f.Job.OutputPath, r)
		blocks, err := f.RT.DFS.Blocks(path)
		if err != nil {
			continue
		}
		for _, b := range blocks {
			data := b.Peek()
			off := 0
			for off < len(data) {
				k, v, n := kv.DecodePair(data[off:])
				if n == 0 {
					break
				}
				early[string(k)], _ = strconv.ParseUint(string(v), 10, 64)
				off += n
			}
		}
	}
	if len(early) == 0 {
		t.Fatal("no early answers retained")
	}
	var coveredMass, exactMass float64
	for k, ev := range early {
		exact, err := strconv.ParseUint(res.Output[k], 10, 64)
		if err != nil {
			t.Fatalf("early key %q missing from exact output", k)
		}
		if ev > exact {
			t.Fatalf("early answer for %q overcounts: %d > %d", k, ev, exact)
		}
		coveredMass += float64(ev)
		exactMass += float64(exact)
	}
	if coveredMass < 0.5*exactMass {
		t.Fatalf("early answers carry only %.0f%% of their keys' exact mass", 100*coveredMass/exactMass)
	}
	totalEarly := 0
	for _, s := range res.Snapshots {
		totalEarly += s.Pairs
		if s.At <= 0 {
			t.Fatal("snapshot missing timestamp")
		}
	}
	if totalEarly == 0 {
		t.Fatal("early snapshots carried no pairs")
	}
	// Early answers cover the hot keys — far fewer than all keys, but the
	// point is they exist before the cold-completion pass.
	if totalEarly >= res.OutputPairs {
		t.Fatalf("early pairs %d should be a subset of final %d", totalEarly, res.OutputPairs)
	}
}

func TestNodeFailureReexecutesLostMaps(t *testing.T) {
	for _, mode := range []Mode{HybridHash, Incremental, HotKey} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			w := workloads.PerUserCount(smallClicks())
			// Enough blocks that node 1 is still mapping when it dies; its
			// persisted outputs and leftover files are lost and must be
			// recomputed when reducers pull them.
			f := enginetest.New(t, w, enginetest.Config{Nodes: 4, InputSize: 32 * 64 << 10})
			res, err := Run(f.RT, f.Job, mode, engine.Options{
				Faults: faults.Schedule{Faults: []faults.Fault{
					{Kind: faults.NodeFailure, Node: 1, At: 10 * sim.Millisecond}}}})
			if err != nil {
				t.Fatal(err)
			}
			f.CheckOutput(t, w, res)
			if res.Counters.Get(engine.CtrFaultsInjected) != 1 {
				t.Fatal("fault not injected")
			}
			if res.Counters.Get(engine.CtrTasksReexecuted) == 0 {
				t.Fatal("no map tasks were re-executed after the failure")
			}
		})
	}
}
