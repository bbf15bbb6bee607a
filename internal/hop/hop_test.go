package hop

import (
	"fmt"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/engine"
	"onepass/internal/enginetest"
	"onepass/internal/faults"
	"onepass/internal/gen"
	"onepass/internal/hadoop"
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
	docs := gen.DefaultDocConfig()
	docs.Vocab = 400
	docs.WordsPerDoc = 60
	cases := []*workloads.Workload{
		workloads.Sessionization(smallClicks()),
		workloads.PageFrequency(smallClicks()),
		workloads.PerUserCount(smallClicks()),
		workloads.InvertedIndex(docs),
	}
	for _, w := range cases {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f, res := run(t, w, enginetest.Config{}, engine.Options{})
			f.CheckOutput(t, w, res)
		})
	}
}

func TestSnapshotsEmitted(t *testing.T) {
	w := workloads.Sessionization(smallClicks())
	_, res := run(t, w, enginetest.Config{Reducers: 2}, engine.Options{})
	if len(res.Snapshots) == 0 {
		t.Fatal("no snapshots emitted")
	}
	fracs := map[float64]bool{}
	for _, s := range res.Snapshots {
		fracs[s.Fraction] = true
		if s.At <= 0 {
			t.Error("snapshot without timestamp")
		}
	}
	if !fracs[0.25] && !fracs[0.5] && !fracs[0.75] {
		t.Fatalf("unexpected snapshot fractions: %v", res.Snapshots)
	}
	// Snapshots must precede job completion.
	if res.Snapshots[0].At >= res.FirstOutputAt && res.OutputPairs > 0 {
		t.Fatalf("first snapshot at %v not before final output at %v",
			res.Snapshots[0].At, res.FirstOutputAt)
	}
}

func TestSnapshotsCanBeDisabled(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	f, res := run(t, w, enginetest.Config{}, engine.Options{DisableSnapshots: true})
	if len(res.Snapshots) != 0 {
		t.Fatalf("snapshots = %v", res.Snapshots)
	}
	f.CheckOutput(t, w, res)
}

func TestBackpressureSpillsToMapperDisk(t *testing.T) {
	w := workloads.Sessionization(smallClicks())
	// Tiny inbound queues force the adaptive path: mappers stage chunks to
	// local disk and wait.
	// Tiny reducer memory keeps the reducers busy spilling while chunks
	// keep arriving, so their inbound queues overflow.
	f, res := run(t, w, enginetest.Config{Reducers: 2, MemPerTask: 4 << 10},
		engine.Options{ChunkBytes: 2 << 10, BackpressureBytes: 4 << 10, FanIn: 2, DisableSnapshots: true})
	if res.Counters.Get(engine.CtrMapSpillBytes) == 0 {
		t.Fatal("expected mapper-side staging under backpressure")
	}
	f.CheckOutput(t, w, res)
}

func TestStillBlockingLikeHadoop(t *testing.T) {
	// HOP's pipelining must not make the final answer incremental: first
	// *final* output still comes after the last map completes.
	w := workloads.Sessionization(smallClicks())
	_, res := run(t, w, enginetest.Config{}, engine.Options{DisableSnapshots: true})
	_, mapEnd, _ := res.Timeline.PhaseWindow(engine.SpanMap)
	if res.FirstOutputAt < mapEnd {
		t.Fatalf("first output %v before map end %v", res.FirstOutputAt, mapEnd)
	}
}

func TestSortWorkMovedToReducers(t *testing.T) {
	// Mapper-side sort comparisons must be lower than stock Hadoop's, and
	// reducer-side merge comparisons higher — work redistributed, not
	// removed (§III.D).
	w1 := workloads.Sessionization(smallClicks())
	fHop := enginetest.New(t, w1, enginetest.Config{})
	hopRes, err := Run(fHop.RT, fHop.Job, engine.Options{ChunkBytes: 4 << 10, DisableSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	w2 := workloads.Sessionization(smallClicks())
	fH := enginetest.New(t, w2, enginetest.Config{})
	hRes, err := engine.Run(fH.RT, fH.Job, engine.Options{}, hadoop.Plan)
	if err != nil {
		t.Fatal(err)
	}
	hopSort := hopRes.Counters.Get(engine.CtrSortComparisons)
	hSort := hRes.Counters.Get(engine.CtrSortComparisons)
	if hopSort >= hSort {
		t.Errorf("HOP mapper sort comparisons %v should be < Hadoop's %v", hopSort, hSort)
	}
	hopMerge := hopRes.Counters.Get(engine.CtrMergeComparisons)
	hMerge := hRes.Counters.Get(engine.CtrMergeComparisons)
	if hopMerge <= hMerge {
		t.Errorf("HOP merge comparisons %v should be > Hadoop's %v", hopMerge, hMerge)
	}
}

func TestShuffleBytesMatchMapOutput(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	_, res := run(t, w, enginetest.Config{}, engine.Options{DisableSnapshots: true})
	shuffled := res.Counters.Get(engine.CtrShuffleBytes)
	if shuffled == 0 {
		t.Fatal("nothing shuffled")
	}
}

func TestNodeFailureRepushesLostChunks(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	// Enough blocks that node 1 still has map tasks (and undelivered
	// chunks) in flight when it dies.
	f := enginetest.New(t, w, enginetest.Config{Nodes: 4, InputSize: 32 * 64 << 10})
	res, err := Run(f.RT, f.Job, engine.Options{Faults: faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.NodeFailure, Node: 1, At: 20 * sim.Millisecond}}}})
	if err != nil {
		t.Fatal(err)
	}
	f.CheckOutput(t, w, res)
	if res.Counters.Get(engine.CtrFaultsInjected) != 1 {
		t.Fatal("fault not injected")
	}
	if res.Counters.Get(engine.CtrTasksReexecuted) == 0 {
		t.Fatal("no lost map task was recovered")
	}
}

func TestSpeculationDedupsDuplicateChunks(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	f := enginetest.New(t, w, enginetest.Config{Nodes: 4, InputSize: 16 * 64 << 10,
		Cluster: func(c *cluster.Config) { c.SSDIntermediate = true }})
	f.Job.Speculation = true
	// A crippled scratch disk makes node 3's map attempts straggle, so the
	// drained queue backs them up on other nodes; both attempts push the
	// same (map task, seq) chunks and reducers must drop the duplicates.
	f.RT.Cluster.Node(3).ScratchDevice().SetSlowdown(100)
	res, err := Run(f.RT, f.Job, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.CheckOutput(t, w, res)
	if res.Counters.Get(engine.CtrMapTasksSpeculative) == 0 {
		t.Fatal("no speculative attempt launched")
	}
}

// Stock Hadoop's allocation test over the same cases: HOP adds three snapshot
// re-merges per reducer to the path, and they too alias the runs they stream
// and share the reducer's one grouper; their files, like the discarded final
// output, are counted and never encoded. Each case has its own bound, a
// margin above what it reads: sessionization 3.7x and 3.9x its input plus
// map-output bytes, per-user-count 5.0x and 5.1x.
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

// A snapshot file's payload is never read, so its pairs are never encoded:
// writing one counts its size and allocates nothing, across flushes too.
func TestSnapshotWriteAllocatesNothing(t *testing.T) {
	f := enginetest.New(t, workloads.Sessionization(smallClicks()), enginetest.Config{})
	key, val := []byte("user-0001"), make([]byte, 200)
	f.RT.Env.Go("snapshot", func(p *sim.Proc) {
		sink := newSnapshotSink(f.RT, p, f.RT.Cluster.Node(0), &f.Job, 0, 0.25)
		if avg := testing.AllocsPerRun(5000, func() { sink.write(key, val) }); avg != 0 {
			t.Errorf("snapshot write allocates %.1f/pair, budget 0", avg)
		}
		sink.flush()
	})
	f.RT.Env.Run()
	size, err := f.RT.DFS.Size(f.Job.OutputPath + "/snapshot-025/part-r-00000")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5001 * kv.EncodedSize(key, val)); size != want {
		t.Fatalf("snapshot file charged %d bytes, want %d", size, want)
	}
}

// The combine-conservation audit holds a map task's raw bytes to what its
// chunks' combine steps elided, counted group by group in sortEncodeChunk,
// plus the pair bytes the sealed chunks hold. A chunk whose combine step
// skips a group loses that group's pairs, and the audit must say so.
func TestCombineConservationCatchesASkippedGroup(t *testing.T) {
	combine := workloads.PerUserCount(smallClicks()).Job.Fold().Combiner()
	ledger := func(skip string) []engine.AuditFailure {
		buf := kv.NewBuffer(0)
		var idxs []int
		for i := 0; i < 400; i++ {
			key := fmt.Sprintf("user-%03d", i%60)
			buf.Add(0, []byte(key), []byte(fmt.Sprint(1+i%3)))
			if key != skip {
				idxs = append(idxs, i)
			}
		}
		c := sortEncodeChunk(buf, idxs, combine)
		a := engine.NewAudit()
		a.MapRawPairs(0, buf.Bytes())
		a.CombineSaved(0, c.saved)
		a.MapFinalPairs(0, c.pairBytes)
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
