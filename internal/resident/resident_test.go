package resident

import (
	"bytes"
	"fmt"
	"slices"
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
			if res.Engine != "resident" {
				t.Fatalf("result labeled %q", res.Engine)
			}
		})
	}
}

// TestMonoidFoldingShrinksShuffle: with the monoid declared, map-side
// folding collapses per-key duplicates before the push, so fewer bytes
// cross the network than with the monoid stripped — and both runs must
// still produce the reference answer with identical checksums.
func TestMonoidFoldingShrinksShuffle(t *testing.T) {
	w := workloads.PerUserCount(smallClicks())
	fOn, resOn := run(t, w, enginetest.Config{}, engine.Options{})
	fOn.CheckOutput(t, w, resOn)

	w2 := workloads.PerUserCount(smallClicks())
	w2.Job.Monoid = nil
	fOff, resOff := run(t, w2, enginetest.Config{}, engine.Options{})
	fOff.CheckOutput(t, w2, resOff)

	if resOn.OutputChecksum != resOff.OutputChecksum {
		t.Fatalf("monoid changed the answer: %016x vs %016x", resOn.OutputChecksum, resOff.OutputChecksum)
	}
	on := resOn.Counters.Get(engine.CtrShuffleBytes)
	off := resOff.Counters.Get(engine.CtrShuffleBytes)
	if on == 0 || off == 0 {
		t.Fatalf("nothing shuffled: on=%v off=%v", on, off)
	}
	if on >= off {
		t.Fatalf("map-side folding did not shrink the shuffle: %v >= %v", on, off)
	}
}

// TestNoScratchDiskTraffic: the engine's contract is an all-memory data
// path — no sort spills, no staged chunks, no intermediate files. Even
// under backpressure tight enough to make mappers wait, scratch devices
// must see zero data bytes.
func TestNoScratchDiskTraffic(t *testing.T) {
	w := workloads.Sessionization(smallClicks())
	f, res := run(t, w, enginetest.Config{Reducers: 2, MemPerTask: 4 << 10},
		engine.Options{ChunkBytes: 2 << 10, BackpressureBytes: 4 << 10})
	f.CheckOutput(t, w, res)
	if spilled := res.Counters.Get(engine.CtrMapSpillBytes); spilled != 0 {
		t.Fatalf("map-side staged %v bytes to disk", spilled)
	}
	for _, n := range f.RT.Cluster.ComputeNodes() {
		if wr := n.ScratchDevice().BytesWritten(); wr != 0 {
			t.Fatalf("node %d scratch device wrote %v bytes", n.ID, wr)
		}
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

// A faulted run over blocks far smaller than a chunk: the recovery pass
// rebuilds the lost task's frame on a surviving node and re-pushes exactly
// the chunks the dead node never delivered, under their original (task,
// seq) identities.
func TestSmallBlockFaultedRunMatchesClean(t *testing.T) {
	enginetest.CheckFaultedMatchesClean(t,
		func() *workloads.Workload { return workloads.PerUserCount(smallClicks()) },
		enginetest.Config{Nodes: 4, BlockSize: 16 << 10, InputSize: 96 * 16 << 10, Reducers: 10},
		func(f *enginetest.Fixture, sched faults.Schedule) (*engine.Result, error) {
			return Run(f.RT, f.Job, engine.Options{Faults: sched})
		})
}

// The map side folds a block into one table where it used to fill one per
// partition. The chunks it seals — partition, sequence number and bytes —
// must be the per-partition tables' chunks exactly, on the first attempt and
// when buildChunks rebuilds the block past an uneven delivery frontier: a
// reducer matches a re-pushed chunk against what it already ingested by
// those identities.
func TestOneTableChunksMatchPerPartitionTables(t *testing.T) {
	docs := gen.DefaultDocConfig()
	docs.Vocab = 400
	docs.WordsPerDoc = 60
	for _, w := range []*workloads.Workload{
		workloads.PerUserCount(smallClicks()),
		workloads.PageFrequency(smallClicks()),
		workloads.InvertedIndex(docs),
	} {
		t.Run(w.Name, func(t *testing.T) {
			f := enginetest.New(t, w, enginetest.Config{Reducers: 7})
			job := f.Job
			j := &engine.JobRun{RT: f.RT, Job: &job, Opts: engine.Options{ChunkBytes: 128},
				Costs: job.Costs.Merged(), Partition: engine.HashPartitioner()}
			blocks, err := f.RT.DFS.Blocks(job.InputPath)
			if err != nil {
				t.Fatal(err)
			}
			same := func(what string, got, want []kv.Chunk) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d chunks, want %d", what, len(got), len(want))
				}
				for i, c := range got {
					if c.Part != want[i].Part || c.Seq != want[i].Seq || !bytes.Equal(c.Data, want[i].Data) {
						t.Fatalf("%s: chunk %d is (part %d, seq %d, %d bytes), want (part %d, seq %d, %d bytes) with the same contents",
							what, i, c.Part, c.Seq, len(c.Data), want[i].Part, want[i].Seq, len(want[i].Data))
					}
				}
			}
			multi := false
			f.RT.Env.Go("map", func(p *sim.Proc) {
				node := f.RT.Cluster.Node(0)
				for _, b := range blocks {
					var want []kv.Chunk
					_, err := f.RT.ExecuteMapWith(p, node, &job, b, j.Partition, nil, func(_ *engine.Job, buf *kv.Buffer) {
						want = refChunks(buf, job.Reducers, job.Fold(), j.Opts.ChunkBytes)
					})
					if err != nil {
						t.Error(err)
						return
					}
					got, _ := buildChunks(j, p, node, b, nil)
					same(fmt.Sprintf("block %d", b.Index), got, want)

					// Partition r had its first r%3 chunks delivered.
					already := make([]int, job.Reducers)
					var tail []kv.Chunk
					for r := range already {
						already[r] = r % 3
					}
					for _, c := range want {
						multi = multi || c.Seq > 0
						if c.Seq >= already[c.Part] {
							tail = append(tail, c)
						}
					}
					regen, _ := buildChunks(j, p, node, b, already)
					same(fmt.Sprintf("block %d regenerated", b.Index), regen, tail)
				}
			})
			f.RT.Env.Run()
			if !multi {
				t.Fatal("no partition sealed a second chunk: sequence numbers went untested")
			}
		})
	}
}

// A declared job's pairs fold into the one table as Map emits them, and the
// table drains straight into the frame. The chunks must be the former
// two-pass fold's — fill a buffer, fold it, drain the table into a second
// buffer, pack that — in the same push order, for any reducer count, on a
// first attempt and when a recovery rebuilds the block past a delivery
// frontier; and the fold's own counts must conserve the map output's bytes.
func TestChunksMatchTwoPassFold(t *testing.T) {
	docs := gen.DefaultDocConfig()
	docs.Vocab = 400
	docs.WordsPerDoc = 60
	for _, w := range []*workloads.Workload{
		workloads.PerUserCount(smallClicks()),
		workloads.PageFrequency(smallClicks()),
		workloads.InvertedIndex(docs),
	} {
		for _, R := range []int{1, 7, 20} {
			t.Run(fmt.Sprintf("%s/R=%d", w.Name, R), func(t *testing.T) {
				f := enginetest.New(t, w, enginetest.Config{Reducers: R})
				f.RT.Audit = engine.NewAudit()
				job := f.Job
				j := &engine.JobRun{RT: f.RT, Job: &job, Opts: engine.Options{ChunkBytes: 128},
					Costs: job.Costs.Merged(), Partition: engine.HashPartitioner()}
				blocks, err := f.RT.DFS.Blocks(job.InputPath)
				if err != nil {
					t.Fatal(err)
				}
				f.RT.Env.Go("map", func(p *sim.Proc) {
					node := f.RT.Cluster.Node(0)
					for _, b := range blocks {
						// Partition r had its first r%3 chunks delivered.
						already := make([]int, R)
						for r := range already {
							already[r] = r % 3
						}
						frontiers := [][]int{nil, already}
						wants := make([][]kv.Chunk, len(frontiers))
						_, err := f.RT.ExecuteMapWith(p, node, &job, b, j.Partition, nil, func(_ *engine.Job, buf *kv.Buffer) {
							for i, frontier := range frontiers {
								wants[i] = refTwoPassChunks(buf, R, job.Fold(), j.Opts.ChunkBytes, frontier)
							}
						})
						if err != nil {
							t.Error(err)
							return
						}
						for i, frontier := range frontiers {
							want := wants[i]
							got, _ := buildChunks(j, p, node, b, frontier)
							if !slices.EqualFunc(got, want, func(a, b kv.Chunk) bool {
								return a.Part == b.Part && a.Seq == b.Seq && bytes.Equal(a.Data, b.Data)
							}) {
								t.Fatalf("block %d, delivered %v: %d chunks differ from the two-pass fold's %d", b.Index, frontier, len(got), len(want))
							}
						}
					}
				})
				f.RT.Env.Run()
				if failures := f.RT.Audit.Finish(nil); len(failures) != 0 {
					t.Fatalf("map side's ledger:\n%s", engine.FormatAuditFailures(failures))
				}
			})
		}
	}
}

// The resident engine's map side shares the packed partition frame with the
// hash engines: its allocation must follow the data, not ChunkBytes.
func TestAllocationProportionalToData(t *testing.T) {
	// Each case has its own bound, a margin above what it reads: a declared
	// job's pairs go from emit to frame in one copy (3.2x; 3.7x while a
	// growing table copied its entries), an undeclared one's through a
	// map-output buffer (4.8x).
	for _, tc := range []struct {
		name     string
		w        *workloads.Workload
		block    int64
		reducers int
		bound    float64
	}{
		{"per-user-count/16KB/10", workloads.PerUserCount(smallClicks()), 16 << 10, 10, 4},
		{"sessionization/128KB/20", workloads.Sessionization(smallClicks()), 128 << 10, 20, 5.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enginetest.CheckAllocationProportional(t, tc.w, enginetest.Config{
				Nodes: 4, BlockSize: tc.block, InputSize: 16 * tc.block, Reducers: tc.reducers}, tc.bound,
				func(f *enginetest.Fixture) (*engine.Result, error) { return Run(f.RT, f.Job, engine.Options{}) })
		})
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	var sums []uint64
	for i := 0; i < 2; i++ {
		w := workloads.PageFrequency(smallClicks())
		_, res := run(t, w, enginetest.Config{}, engine.Options{ChunkBytes: 3 << 10})
		sums = append(sums, res.OutputChecksum)
	}
	if sums[0] != sums[1] {
		t.Fatalf("checksums differ across identical runs: %016x vs %016x", sums[0], sums[1])
	}
}

// identityJob re-emits a previous stage's (key, value) pairs unchanged:
// its output format equals its input format, so it chains onto itself
// indefinitely — the shape of an iterative computation's per-step job.
func identityJob(i int) engine.Job {
	return engine.Job{
		Name:   fmt.Sprintf("identity-%d", i),
		Reader: workloads.PairReader,
		Map: func(rec []byte, emit engine.Emit) {
			k, v, n := kv.DecodePair(rec)
			if n == 0 {
				return
			}
			emit(k, v)
		},
		Reduce: func(key []byte, vals [][]byte, emit engine.Emit) {
			for _, v := range vals {
				emit(key, v)
			}
		},
		Reducers: 4,
	}
}

// TestChainedIterationsReadNoDisk is the resident engine's reason to
// exist, as a regression test: after the first iteration reads the real
// input, every later iteration of a chained computation maps over the
// previous reduce output as memory-resident DFS blocks — the cluster-wide
// disk read counter must not move again, across the whole chain.
func TestChainedIterationsReadNoDisk(t *testing.T) {
	env := sim.New()
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 4
	ccfg.CoresPerNode = 2
	c := cluster.New(env, ccfg)
	d := dfs.New(c, 64<<10, 1)
	w := workloads.PageFrequency(smallClicks())
	if err := d.RegisterGenerated("input/clicks", 8*64<<10, w.Gen); err != nil {
		t.Fatal(err)
	}

	runStage := func(job engine.Job) *engine.Result {
		t.Helper()
		rt := engine.NewRuntime(env, c, d)
		res, err := Run(rt, job, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	stage0 := w.Job
	stage0.InputPath = "input/clicks"
	stage0.OutputPath = "iter-0"
	stage0.Reducers = 4
	base := runStage(stage0)
	if base.OutputPairs == 0 {
		t.Fatal("stage 0 produced no output")
	}
	afterStage0 := c.DiskBytesRead()
	if afterStage0 == 0 {
		t.Fatal("stage 0 read no disk bytes — input was not disk-resident")
	}

	var prev *engine.Result = base
	for i := 1; i <= 3; i++ {
		job := identityJob(i)
		job.InputPath = fmt.Sprintf("iter-%d", i-1)
		job.OutputPath = fmt.Sprintf("iter-%d", i)
		job.RetainOutput = true
		before := c.DiskBytesRead()
		res := runStage(job)
		if delta := c.DiskBytesRead() - before; delta != 0 {
			t.Fatalf("iteration %d read %v disk bytes; want 0 (resident hand-off missed)", i, delta)
		}
		if res.OutputPairs != prev.OutputPairs {
			t.Fatalf("iteration %d emitted %d pairs, previous stage %d", i, res.OutputPairs, prev.OutputPairs)
		}
		if res.OutputChecksum != prev.OutputChecksum {
			t.Fatalf("iteration %d checksum %016x != iteration %d's %016x",
				i, res.OutputChecksum, i-1, prev.OutputChecksum)
		}
		prev = res
	}
}

// Finalization walks every key of the table and hands each out where it lies
// in the arena: no per-key copy (80 k objects in a 3 s fleet run before this
// was pinned), not even a scratch buffer.
func TestEmitAllAllocatesNothingPerKey(t *testing.T) {
	env := sim.New()
	cl := cluster.New(env, cluster.DefaultConfig())
	table := newFoldTable((&engine.Job{Monoid: workloads.CountMonoid{}}).Fold())
	for i := 0; i < 500; i++ {
		table.fold([]byte(fmt.Sprintf("user-%04d", i)), []byte("1"), 0)
	}
	pairs := 0
	emit := func(k, v []byte) { pairs++ }
	env.Go("t", func(p *sim.Proc) {
		avg := testing.AllocsPerRun(10, func() {
			table.emitAll(p, cl.Node(0), engine.DefaultCosts(), emit)
		})
		if avg != 0 {
			t.Errorf("emitAll allocates %.0f objects over 500 keys, budget 0", avg)
		}
	})
	env.Run()
	if pairs != 11*500 {
		t.Fatalf("emitted %d pairs, want %d", pairs, 11*500)
	}
}

// A reduce task folds each arriving chunk in a pooled closure built once
// per task and re-aimed at the chunk, so a chunk of known keys allocates
// nothing.
func TestChunkFoldAllocatesNothingPerChunk(t *testing.T) {
	env := sim.New()
	cl := cluster.New(env, cluster.DefaultConfig())
	rt := engine.NewRuntime(env, cl, dfs.New(cl, 64<<10, 1))
	in := newChunkFold(newFoldTable((&engine.Job{Monoid: workloads.CountMonoid{}}).Fold()), 0)
	var chunk []byte
	for i := 0; i < 64; i++ {
		chunk = kv.AppendPair(chunk, []byte(fmt.Sprintf("user-%04d", i)), []byte("1"))
	}
	env.Go("t", func(p *sim.Proc) {
		in.ingest(p, rt, cl.Node(0), engine.DefaultCosts(), chunk) // the keys' first fold
		if avg := testing.AllocsPerRun(100, func() { in.ingest(p, rt, cl.Node(0), engine.DefaultCosts(), chunk) }); avg != 0 {
			t.Errorf("a chunk's fold allocates %.1f objects at steady state, budget 0", avg)
		}
	})
	env.Run()
}
