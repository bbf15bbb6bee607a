package hadoop

import (
	"fmt"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/enginetest"
	"onepass/internal/faults"
	"onepass/internal/gen"
	"onepass/internal/kv"
	"onepass/internal/sim"
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

// Run executes job on rt with this package's engine, alone on rt's
// environment.
func Run(rt *engine.Runtime, job engine.Job, opts engine.Options) (*engine.Result, error) {
	return engine.Run(rt, job, opts, Plan)
}

func run(t *testing.T, w *workloads.Workload, cfg enginetest.Config, opts engine.Options) (*enginetest.Fixture, *engine.Result) {
	t.Helper()
	f := enginetest.New(t, w, cfg)
	res, err := Run(f.RT, f.Job, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

func TestAllWorkloadsMatchReference(t *testing.T) {
	cases := []*workloads.Workload{
		workloads.Sessionization(smallClicks()),
		workloads.PageFrequency(smallClicks()),
		workloads.PerUserCount(smallClicks()),
		workloads.InvertedIndex(smallDocs()),
	}
	for _, w := range cases {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f, res := run(t, w, enginetest.Config{}, engine.Options{})
			f.CheckOutput(t, w, res)
		})
	}
}

func TestSpillAndMultiPassMergeStillCorrect(t *testing.T) {
	w := workloads.Sessionization(smallClicks())
	// Tiny reducer memory forces spills; tiny fan-in forces multi-pass.
	f, res := run(t, w, enginetest.Config{MemPerTask: 4 << 10, Reducers: 2}, engine.Options{FanIn: 2})
	f.CheckOutput(t, w, res)
	if res.Counters.Get(engine.CtrReduceSpillBytes) == 0 {
		t.Fatal("expected reduce-side spills")
	}
	if res.Counters.Get(engine.CtrMergePasses) == 0 {
		t.Fatal("expected multi-pass merges")
	}
}

func TestNoSpillWhenMemoryAmple(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	_, res := run(t, w, enginetest.Config{MemPerTask: 1 << 30}, engine.Options{})
	if res.Counters.Get(engine.CtrReduceSpillBytes) != 0 {
		t.Fatalf("unexpected spills: %v bytes", res.Counters.Get(engine.CtrReduceSpillBytes))
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	w := workloads.PageFrequency(smallClicks())
	_, withCombiner := run(t, w, enginetest.Config{}, engine.Options{})
	w2 := workloads.PageFrequency(smallClicks())
	w2.Job.Monoid = nil
	f2 := enginetest.New(t, w2, enginetest.Config{})
	noCombiner, err := Run(f2.RT, f2.Job, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := withCombiner.Counters.Get(engine.CtrShuffleBytes)
	snc := noCombiner.Counters.Get(engine.CtrShuffleBytes)
	if sc >= snc/2 {
		t.Fatalf("combiner shuffle %v should be far below %v", sc, snc)
	}
	f2.CheckOutput(t, w2, noCombiner)
}

func TestPhaseCPUAccounting(t *testing.T) {
	w := workloads.Sessionization(smallClicks())
	_, res := run(t, w, enginetest.Config{}, engine.Options{})
	for _, phase := range []string{engine.PhaseParse, engine.PhaseMapFn, engine.PhaseSort, engine.PhaseReduce} {
		if res.CPU.Seconds(phase) <= 0 {
			t.Errorf("phase %s has no CPU", phase)
		}
	}
	if res.Counters.Get(engine.CtrSortComparisons) == 0 {
		t.Error("sort comparisons not counted")
	}
}

func TestTimelineHasAllFourOperations(t *testing.T) {
	w := workloads.Sessionization(smallClicks())
	f, res := run(t, w, enginetest.Config{MemPerTask: 8 << 10}, engine.Options{FanIn: 2})
	counts := res.Timeline.CountByPhase()
	for _, span := range []string{engine.SpanMap, engine.SpanShuffle, engine.SpanMerge, engine.SpanReduce} {
		if counts[span] == 0 {
			t.Errorf("timeline missing %s spans: %v", span, counts)
		}
	}
	if counts[engine.SpanMap] != len(f.Blocks) {
		t.Errorf("map spans = %d, blocks = %d", counts[engine.SpanMap], len(f.Blocks))
	}
}

func TestReduceBlockedUntilMapsDone(t *testing.T) {
	// Sort-merge is blocking: first output must come after the last map
	// task finishes.
	w := workloads.Sessionization(smallClicks())
	_, res := run(t, w, enginetest.Config{}, engine.Options{})
	_, mapEnd, ok := res.Timeline.PhaseWindow(engine.SpanMap)
	if !ok {
		t.Fatal("no map spans")
	}
	if res.FirstOutputAt < mapEnd {
		t.Fatalf("first output at %v before maps ended at %v — sort-merge cannot do that", res.FirstOutputAt, mapEnd)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	_, res1 := run(t, w, enginetest.Config{}, engine.Options{})
	w2 := workloads.PerUserCount(smallClicks())
	_, res2 := run(t, w2, enginetest.Config{}, engine.Options{})
	if res1.Makespan != res2.Makespan {
		t.Fatalf("makespans differ: %v vs %v", res1.Makespan, res2.Makespan)
	}
	if res1.OutputPairs != res2.OutputPairs {
		t.Fatalf("output pairs differ")
	}
}

func TestSplitTopologyRuns(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	f := enginetest.New(t, w, enginetest.Config{Nodes: 4, Cluster: func(c *cluster.Config) { c.SplitStorage = true }})
	res, err := Run(f.RT, f.Job, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.CheckOutput(t, w, res)
	// All input must have crossed the network (no data locality).
	if res.NetBytes.Sum() == 0 {
		t.Fatal("split topology moved no network bytes")
	}
}

func TestInvalidJobRejected(t *testing.T) {
	env := sim.New()
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 2
	c := cluster.New(env, ccfg)
	rt := engine.NewRuntime(env, c, dfs.New(c, 1<<20, 1))
	if _, err := Run(rt, engine.Job{}, engine.Options{}); err == nil {
		t.Fatal("empty job must be rejected")
	}
	w := workloads.PerUserCount(smallClicks())
	job := w.Job
	job.InputPath = "missing"
	job.OutputPath = "out"
	job.Reducers = 2
	if _, err := Run(rt, job, engine.Options{}); err == nil {
		t.Fatal("missing input must be rejected")
	}
}

func TestNodeFailureReexecutesLostMaps(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	// Enough blocks that node 1 is still mapping when it dies at 20ms.
	f := enginetest.New(t, w, enginetest.Config{Nodes: 4, InputSize: 32 * 64 << 10})
	// Fail node 1 shortly into the run: its completed map outputs are lost
	// and must be recomputed when reducers ask for them. (The failure model
	// is TaskTracker death: DFS replicas stay readable.)
	res, err := Run(f.RT, f.Job, engine.Options{Faults: faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.NodeFailure, Node: 1, At: 20 * sim.Millisecond}}}})
	if err != nil {
		t.Fatal(err)
	}
	f.CheckOutput(t, w, res)
	if res.Counters.Get("faults.injected") != 1 {
		t.Fatal("fault not injected")
	}
	if res.Counters.Get(engine.CtrTasksReexecuted) == 0 {
		t.Fatal("no map tasks were re-executed after the failure")
	}
}

func TestNodeFailureBeforeAnyMapsStillCorrect(t *testing.T) {
	// Failing a node at t=0 removes its slots entirely; the remaining nodes
	// absorb all tasks.
	w := workloads.PerUserCount(smallClicks())
	f := enginetest.New(t, w, enginetest.Config{Nodes: 4})
	res, err := Run(f.RT, f.Job, engine.Options{Faults: faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.NodeFailure, Node: 2, At: 0}}}})
	if err != nil {
		t.Fatal(err)
	}
	f.CheckOutput(t, w, res)
	if res.Counters.Get(engine.CtrTasksReexecuted) != 0 {
		t.Fatal("nothing should need re-execution when the node dies before completing any map")
	}
}

func TestSpeculativeExecutionOnStraggler(t *testing.T) {
	w := workloads.Sessionization(smallClicks())
	// SSD topology separates scratch from DFS, so slowing node 3's scratch
	// makes only its *computation side* straggle — the case speculation
	// addresses (the data itself stays readable at full speed).
	f := enginetest.New(t, w, enginetest.Config{Nodes: 4, InputSize: 16 * 64 << 10,
		Cluster: func(c *cluster.Config) { c.SSDIntermediate = true }})
	f.Job.Speculation = true
	f.RT.Cluster.Node(3).ScratchDevice().SetSlowdown(100)
	res, err := Run(f.RT, f.Job, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.CheckOutput(t, w, res)
	if res.Counters.Get(engine.CtrMapTasksSpeculative) == 0 {
		t.Fatal("no speculative attempts launched against the straggler")
	}
}

func TestSpeculationReducesStragglerLatency(t *testing.T) {
	run := func(speculate bool) *engine.Result {
		w := workloads.Sessionization(smallClicks())
		f := enginetest.New(t, w, enginetest.Config{Nodes: 4, InputSize: 16 * 64 << 10,
			Cluster: func(c *cluster.Config) { c.SSDIntermediate = true }})
		f.Job.Speculation = speculate
		f.RT.Cluster.Node(3).ScratchDevice().SetSlowdown(100)
		res, err := Run(f.RT, f.Job, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f.CheckOutput(t, w, res)
		return res
	}
	plain := run(false)
	spec := run(true)
	// Makespans round to the sampler tick at this scale; first output is
	// un-rounded and, for sort-merge, gated on the last (straggling) map.
	if spec.FirstOutputAt >= plain.FirstOutputAt {
		t.Fatalf("speculation did not improve first-answer latency: %v vs %v",
			spec.FirstOutputAt, plain.FirstOutputAt)
	}
}

func TestReduceSideCombineDuringSpill(t *testing.T) {
	// The paper (§II.A): "It can be further applied in a reducer when its
	// data buffer fills up." With the segment-count trigger forcing spills
	// of an aggregable workload, the spilled runs must be combined (small)
	// yet the answer exact.
	w := workloads.PerUserCount(smallClicks())
	f, res := run(t, w, enginetest.Config{InputSize: 16 * 64 << 10}, engine.Options{SegmentLimit: 4})
	f.CheckOutput(t, w, res)
	spill := res.Counters.Get(engine.CtrReduceSpillBytes)
	if spill == 0 {
		t.Fatal("segment limit did not force spills")
	}
	// Combined spills must be far below the raw shuffled volume.
	shuffled := res.Counters.Get(engine.CtrShuffleBytes)
	if spill > shuffled {
		t.Fatalf("spill %v exceeds shuffle %v — combiner not applied at spill time", spill, shuffled)
	}
}

// A node dies mid-shuffle, while reducers hold (uncopied) slices of its map
// outputs' frames and spill them under a tight budget: the re-executed
// attempts' frames must not disturb what was already fetched, and the run
// must produce the clean run's output exactly.
func TestMidShuffleFailureMatchesCleanChecksum(t *testing.T) {
	w := workloads.Sessionization(smallClicks())
	cfg := enginetest.Config{Nodes: 4, InputSize: 32 * 64 << 10, MemPerTask: 16 << 10, Reducers: 4}
	_, clean := run(t, w, cfg, engine.Options{FanIn: 2})
	f, faulted := run(t, w, cfg, engine.Options{FanIn: 2, Faults: faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.NodeFailure, Node: 1, At: 20 * sim.Millisecond}}}})
	f.CheckOutput(t, w, faulted)
	if faulted.Counters.Get(engine.CtrTasksReexecuted) == 0 || faulted.Counters.Get(engine.CtrReduceSpillBytes) == 0 {
		t.Fatalf("fault did not land mid-shuffle under spills: %v re-executed, %v spill bytes",
			faulted.Counters.Get(engine.CtrTasksReexecuted), faulted.Counters.Get(engine.CtrReduceSpillBytes))
	}
	if faulted.OutputChecksum != clean.OutputChecksum || faulted.OutputPairs != clean.OutputPairs {
		t.Fatalf("faulted run: checksum %x over %d pairs, clean run: %x over %d",
			faulted.OutputChecksum, faulted.OutputPairs, clean.OutputChecksum, clean.OutputPairs)
	}
}

// Sort-merge allocation must follow the data too: a reduce-side byte is
// allocated when its run is merged, not at every hand-off after it, a
// reducer with a few pairs of output (the 16 KB cases) stages kilobytes, not
// a flush unit, and discarded output stages only its pairs' sizes. Each case
// has its own bound, a margin above what it reads: sessionization 4.0x and
// 3.8x its input plus map-output bytes, per-user-count 4.6x and 5.0x.
func TestAllocationProportionalToData(t *testing.T) {
	for _, tc := range []struct {
		name     string
		w        *workloads.Workload
		block    int64
		reducers int
		bound    float64
	}{
		{"sessionization/128KB/20", workloads.Sessionization(smallClicks()), 128 << 10, 20, 4.5},
		{"sessionization/16KB/10", workloads.Sessionization(smallClicks()), 16 << 10, 10, 4.5},
		{"per-user-count/128KB/20", workloads.PerUserCount(smallClicks()), 128 << 10, 20, 6},
		{"per-user-count/16KB/10", workloads.PerUserCount(smallClicks()), 16 << 10, 10, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enginetest.CheckAllocationProportional(t, tc.w, enginetest.Config{
				Nodes: 4, BlockSize: tc.block, InputSize: 16 * tc.block, Reducers: tc.reducers}, tc.bound,
				func(f *enginetest.Fixture) (*engine.Result, error) {
					return Run(f.RT, f.Job, engine.Options{})
				})
		})
	}
}

// The combine-conservation audit holds a map task's raw bytes to what its
// combine step elided, counted group by group in engine.CombineSorted, plus
// the combined buffer the task writes. A combine step that skips a group
// loses that group's pairs, and the audit must say so.
func TestCombineConservationCatchesASkippedGroup(t *testing.T) {
	combine := workloads.PerUserCount(smallClicks()).Job.Fold().Combiner()
	ledger := func(skip string) []engine.AuditFailure {
		buf := kv.NewBuffer(0)
		var raw int64
		for i := 0; i < 400; i++ {
			key, val := fmt.Sprintf("user-%03d", i%60), fmt.Sprint(1+i%3)
			raw += int64(len(key) + len(val))
			if key != skip {
				buf.Add(i%4, []byte(key), []byte(val))
			}
		}
		buf.SortByPartitionKey(nil)
		combined := kv.NewBuffer(0)
		_, saved := engine.CombineSorted(combine, buf, combined)
		a := engine.NewAudit()
		a.MapRawPairs(0, raw)
		a.CombineSaved(0, saved)
		a.MapFinalPairs(0, combined.Bytes())
		return a.Finish(nil)
	}
	if failures := ledger(""); len(failures) != 0 {
		t.Fatalf("every group combined, yet the audit failed:\n%s", engine.FormatAuditFailures(failures))
	}
	failures := ledger("user-007")
	if len(failures) != 1 || failures[0].Invariant != "combine-conservation" {
		t.Fatalf("one group skipped: want one combine-conservation failure, got:\n%s", engine.FormatAuditFailures(failures))
	}
}
