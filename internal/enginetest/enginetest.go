// Package enginetest holds the shared fixture for engine correctness tests:
// it stands up a small simulated cluster, registers a workload's generated
// input in the DFS, and checks engine output against the workload's
// single-threaded reference evaluation.
package enginetest

import (
	"fmt"
	"runtime"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/faults"
	"onepass/internal/sim"
	"onepass/internal/workloads"
)

// Fixture is one prepared job run.
type Fixture struct {
	RT     *engine.Runtime
	Job    engine.Job
	Blocks [][]byte
}

// Config tunes the fixture.
type Config struct {
	Nodes      int
	BlockSize  int64
	InputSize  int64
	Reducers   int
	MemPerTask int64
	Cluster    func(*cluster.Config) // optional extra cluster tweaks
}

// New builds a runtime and job for the workload.
func New(t *testing.T, w *workloads.Workload, cfg Config) *Fixture {
	t.Helper()
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 64 << 10
	}
	if cfg.InputSize == 0 {
		cfg.InputSize = 4 * cfg.BlockSize
	}
	if cfg.Reducers == 0 {
		cfg.Reducers = 4
	}
	env := sim.New()
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = cfg.Nodes
	ccfg.CoresPerNode = 2
	if cfg.Cluster != nil {
		cfg.Cluster(&ccfg)
	}
	c := cluster.New(env, ccfg)
	d := dfs.New(c, cfg.BlockSize, 1)
	if err := d.RegisterGenerated("input/"+w.Name, cfg.InputSize, w.Gen); err != nil {
		t.Fatal(err)
	}
	rt := engine.NewRuntime(env, c, d)

	job := w.Job
	job.InputPath = "input/" + w.Name
	job.OutputPath = "output/" + w.Name
	job.Reducers = cfg.Reducers
	job.RetainOutput = true
	if cfg.MemPerTask > 0 {
		job.MemoryPerTask = cfg.MemPerTask
	}

	blocks, err := d.Blocks(job.InputPath)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][]byte, len(blocks))
	for i, b := range blocks {
		raw[i] = w.Gen(b.Index, b.Size)
	}
	return &Fixture{RT: rt, Job: job, Blocks: raw}
}

// CheckOutput compares a result against the reference evaluation.
func (f *Fixture) CheckOutput(t *testing.T, w *workloads.Workload, res *engine.Result) {
	t.Helper()
	want := workloads.Reference(w, f.Blocks)
	if res.Output == nil {
		t.Fatal("result has no retained output")
	}
	if len(res.Output) != len(want) {
		t.Fatalf("output has %d keys, reference %d", len(res.Output), len(want))
	}
	bad := 0
	for k, v := range want {
		if got, ok := res.Output[k]; !ok {
			t.Errorf("missing key %q", k)
			bad++
		} else if got != v {
			t.Errorf("key %q = %q, want %q", k, got, v)
			bad++
		}
		if bad > 5 {
			t.Fatal("too many mismatches")
		}
	}
}

// CheckFaultedMatchesClean runs the workload clean, then again on a fresh
// fixture with the invariant audits armed and node 1 failing a quarter of
// the way through the clean makespan — mid-map, with outputs already
// completed on it. The faulted run must re-execute at least one map task,
// keep every conservation ledger balanced, and produce the reference output
// under the clean run's checksum. mk must build a fresh workload per call.
func CheckFaultedMatchesClean(t *testing.T, mk func() *workloads.Workload, cfg Config,
	run func(f *Fixture, sched faults.Schedule) (*engine.Result, error)) {
	t.Helper()
	clean, err := run(New(t, mk(), cfg), faults.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Parse(fmt.Sprintf("fail@%.4fs:n1", clean.Makespan.Seconds()/4))
	if err != nil {
		t.Fatal(err)
	}
	w := mk()
	f := New(t, w, cfg)
	f.RT.Audit = engine.NewAudit()
	faulted, err := run(f, sched)
	if err != nil {
		t.Fatal(err)
	}
	f.CheckOutput(t, w, faulted)
	if faulted.Counters.Get(engine.CtrTasksReexecuted) == 0 {
		t.Fatal("the fault landed on no completed map output: nothing was re-executed")
	}
	if faulted.OutputChecksum != clean.OutputChecksum {
		t.Fatalf("faulted checksum %x, clean %x", faulted.OutputChecksum, clean.OutputChecksum)
	}
	if len(faulted.AuditFailures) > 0 {
		t.Fatalf("audit:\n%s", engine.FormatAuditFailures(faulted.AuditFailures))
	}
}

// CheckAllocationProportional runs the workload once (output discarded)
// and fails if the run allocated more than bound times its input plus
// map-output bytes — the regression where a buffer is sized to an option's
// default instead of to the data in hand, which no throughput benchmark over
// chunk-filling blocks can see.
func CheckAllocationProportional(t *testing.T, w *workloads.Workload, cfg Config, bound float64,
	run func(f *Fixture) (*engine.Result, error)) {
	t.Helper()
	f := New(t, w, cfg)
	f.Job.RetainOutput = false
	f.Job.DiscardOutput = true
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := run(f)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	data := res.Counters.Get(engine.CtrMapInputBytes) + res.Counters.Get(engine.CtrMapOutputBytes)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("allocated %.0f bytes for %.0f bytes of input + map output: %.1fx", alloc, data, alloc/data)
	if alloc > bound*data {
		t.Fatalf("allocated %.1fx the input + map-output bytes, bound %gx", alloc/data, bound)
	}
}
