package onepass

import (
	"strings"
	"testing"
)

// runCountTopK runs the two-stage page-count -> top-k pipeline on a fresh
// cluster built from cfg and returns both stage results.
func runCountTopK(t *testing.T, cfg Config) (*Result, *Result) {
	t.Helper()
	cl := NewCluster(cfg)
	count := PageFrequency(tinyClicks())
	if err := cl.Register(Dataset{Path: "input/clicks", Size: 256 << 10, Gen: count.Gen}); err != nil {
		t.Fatal(err)
	}
	stage1 := count.Job
	stage1.InputPath = "input/clicks"
	stage1.OutputPath = "out/counts"
	stage1.RetainOutput = true
	res1, err := cl.RunJob(stage1)
	if err != nil {
		t.Fatalf("stage 1: %v", err)
	}
	stage2 := TopK(5)
	stage2.InputPath = "out/counts"
	stage2.RetainOutput = true
	res2, err := cl.RunJob(stage2)
	if err != nil {
		t.Fatalf("stage 2: %v", err)
	}
	return res1, res2
}

// TestChainedJobsAreTraced is the regression for Cluster.RunJob silently
// dropping Config.Trace: with a trace sink configured, every stage of a
// chained pipeline must record spans, not just the first.
func TestChainedJobsAreTraced(t *testing.T) {
	for _, e := range Engines() {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			cfg := tinyConfig(e)
			cfg.Audit = true
			tl := NewTraceLog()
			cfg.Trace = tl

			cl := NewCluster(cfg)
			count := PageFrequency(tinyClicks())
			if err := cl.Register(Dataset{Path: "input/clicks", Size: 256 << 10, Gen: count.Gen}); err != nil {
				t.Fatal(err)
			}
			stage1 := count.Job
			stage1.InputPath = "input/clicks"
			stage1.OutputPath = "out/counts"
			stage1.RetainOutput = true
			if _, err := cl.RunJob(stage1); err != nil {
				t.Fatalf("stage 1: %v", err)
			}
			afterStage1 := tl.Len()
			if afterStage1 == 0 {
				t.Fatal("stage 1 recorded no trace events")
			}
			stage2 := TopK(5)
			stage2.InputPath = "out/counts"
			stage2.RetainOutput = true
			if _, err := cl.RunJob(stage2); err != nil {
				t.Fatalf("stage 2: %v", err)
			}
			if tl.Len() <= afterStage1 {
				t.Fatalf("stage 2 recorded no trace events (%d after stage 1, %d after stage 2): RunJob dropped the trace sink",
					afterStage1, tl.Len())
			}
		})
	}
}

// TestChainedJobsHonorFaults is the regression for Cluster.RunJob silently
// dropping Config.Faults: a chained run under a degradation schedule must
// actually inject the faults (the counter proves the schedule reached the
// engine) and still converge to the clean pipeline's output.
func TestChainedJobsHonorFaults(t *testing.T) {
	for _, e := range Engines() {
		e := e
		t.Run(e.String(), func(t *testing.T) {
			cfg := tinyConfig(e)
			cfg.Audit = true
			clean1, clean2 := runCountTopK(t, cfg)

			// Degradations only: stage 1's retained output is written data a
			// node failure could strand for stage 2. Offsets are job-relative
			// and sit well inside stage 1's clean makespan.
			ms := clean1.Makespan
			cfg.Faults = FaultSchedule{Faults: []Fault{
				{Kind: DiskSlow, Node: 0, At: ms / 5, For: ms / 2, Factor: 6},
				{Kind: Straggler, Node: 1, At: ms / 4, For: ms / 2, Factor: 4},
			}}
			faulted1, faulted2 := runCountTopK(t, cfg)

			if got := faulted1.Counters.Get("faults.injected"); got == 0 {
				t.Fatal("stage 1 injected no faults: RunJob dropped the fault schedule")
			}
			if faulted1.OutputChecksum != clean1.OutputChecksum {
				t.Fatalf("stage 1 checksum %016x, clean %016x", faulted1.OutputChecksum, clean1.OutputChecksum)
			}
			if faulted2.OutputChecksum != clean2.OutputChecksum {
				t.Fatalf("stage 2 checksum %016x, clean %016x", faulted2.OutputChecksum, clean2.OutputChecksum)
			}
		})
	}
}

// TestRunJobValidatesFaultSchedule: an out-of-range fault node must surface
// as an error from RunJob, not a panic mid-run.
func TestRunJobValidatesFaultSchedule(t *testing.T) {
	cfg := tinyConfig(Hadoop)
	cfg.Faults = FaultSchedule{Faults: []Fault{{Kind: DiskSlow, Node: 99, Factor: 2}}}
	cl := NewCluster(cfg)
	count := PageFrequency(tinyClicks())
	if err := cl.Register(Dataset{Path: "input/clicks", Size: 128 << 10, Gen: count.Gen}); err != nil {
		t.Fatal(err)
	}
	job := count.Job
	job.InputPath = "input/clicks"
	_, err := cl.RunJob(job)
	if err == nil {
		t.Fatal("RunJob accepted a fault schedule naming node 99 on a 4-node cluster")
	}
	if !strings.Contains(err.Error(), "node") {
		t.Fatalf("error %q does not mention the offending node", err)
	}
}

// TestJobLevelSettingsWin: Run must not clobber job-level MemoryPerTask or
// output retention with the Config-level values (the documented precedence:
// job-level wins, Config fills zeroes).
func TestJobLevelSettingsWin(t *testing.T) {
	w := PerUserCount(tinyClicks())

	// Output retention: the job says discard, the config says retain.
	cfg := tinyConfig(Hadoop)
	cfg.RetainOutput = true
	job := w.Job
	job.DiscardOutput = true
	res, err := Run(cfg, Dataset{Path: "input/clicks", Size: 256 << 10, Gen: w.Gen}, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Fatalf("job-level DiscardOutput ignored: %d output keys retained", len(res.Output))
	}

	// Memory: a job-level budget far below the config-level one must force
	// reduce-side spilling the roomy config budget would never see.
	sess := Sessionization(tinyClicks())
	roomy := tinyConfig(Hadoop)
	roomy.MemoryPerTask = 8 << 20
	base, err := RunWorkload(roomy, sess, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	tight := sess.Job
	tight.MemoryPerTask = 64 << 10
	tightRes, err := Run(roomy, Dataset{Path: "input/clicks", Size: 256 << 10, Gen: sess.Gen}, tight)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tightRes.Counters.Get("reduce.spill.bytes"), base.Counters.Get("reduce.spill.bytes"); got <= want {
		t.Fatalf("job-level MemoryPerTask ignored: 64KB budget spilled %v bytes, 8MB config budget spilled %v", got, want)
	}
}

// TestConfigRetainingDiscardedOutputRejected: a job that leaves output
// retention to a Config that both retains and discards its output is
// refused by Run and Cluster.RunJob alike, naming the job; discarded output
// has no part files to decode into Result.Output.
func TestConfigRetainingDiscardedOutputRejected(t *testing.T) {
	w := PerUserCount(tinyClicks())
	cfg := tinyConfig(Hadoop)
	cfg.RetainOutput, cfg.DiscardOutput = true, true
	data := Dataset{Path: "input/clicks", Size: 256 << 10, Gen: w.Gen}
	if _, err := Run(cfg, data, w.Job); err == nil || !strings.Contains(err.Error(), w.Job.Name) {
		t.Fatalf("Run: error %v, want one naming job %q", err, w.Job.Name)
	}
	c := NewCluster(cfg)
	if err := c.Register(data); err != nil {
		t.Fatal(err)
	}
	job := w.Job
	job.InputPath, job.OutputPath = data.Path, "out/clicks"
	if _, err := c.RunJob(job); err == nil || !strings.Contains(err.Error(), job.Name) {
		t.Fatalf("Cluster.RunJob: error %v, want one naming job %q", err, job.Name)
	}
}
