// Package check is the cross-engine differential checker: a seeded config
// fuzzer feeds (workload, configuration, fault schedule) tuples to every
// registered engine and asserts that all of them produce identical grouped
// output, that the output matches the single-threaded in-memory reference,
// that faulted runs converge to the clean answer, that monoid workloads
// produce the same answer with the monoid stripped (the monoid-off
// equivalence axis), that incremental re-runs over a fuzzed delta match a
// full re-run over the evolved input byte for byte (the delta equivalence
// axis), and that chained multi-stage pipelines carry traces and faults
// into every stage. All runs execute with the runtime invariant
// audits armed, so any conservation or leak violation at a fuzzed
// configuration also fails the check.
package check

import (
	"crypto/sha256"
	"fmt"
	"io"

	"onepass"
	"onepass/internal/engine"
	"onepass/internal/workloads"
)

// Options parameterizes a differential-check sweep.
type Options struct {
	// Seeds is how many fuzzed tuples to check (default 25).
	Seeds int
	// Seed is the base seed; tuple i uses Seed+i (default 1).
	Seed int64
	// Parallelism is the intra-run worker pool width applied to every run
	// (Config.Parallelism). 0 or 1 keeps runs serial; reports are
	// byte-identical at any width — the behaviour fingerprint pins one
	// sweep's report at widths 1 and 4.
	Parallelism int
	// Log, when non-nil, receives one progress line per tuple.
	Log io.Writer
}

// Failure is one differential or audit violation, with enough context to
// reproduce it.
type Failure struct {
	Seed   int64
	Engine string
	Stage  string // "clean", "reference", "monoid-off", "delta", "faulted", "chained", "chained-faulted"
	Detail string
	Tuple  string
}

func (f Failure) String() string {
	return fmt.Sprintf("seed %d [%s/%s]: %s\n  tuple: %s\n  repro: go run ./cmd/check -seed %d -seeds 1",
		f.Seed, f.Engine, f.Stage, f.Detail, f.Tuple, f.Seed)
}

// Report summarizes a sweep.
type Report struct {
	Tuples   int
	Runs     int
	Failures []Failure
	// Digest is the SHA-256 over every run's engine, stage, output checksum
	// and makespan, in run order: two sweeps that made any run differently
	// differ here even when both pass.
	Digest [sha256.Size]byte
}

// Run executes the sweep described by opts.
func Run(opts Options) *Report {
	if opts.Seeds <= 0 {
		opts.Seeds = 25
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	rep := &Report{}
	digest := sha256.New()
	for i := 0; i < opts.Seeds; i++ {
		c := &seedCheck{t: FuzzTuple(opts.Seed + int64(i)), digest: digest}
		c.t.Cfg.Parallelism = opts.Parallelism
		c.run()
		rep.Tuples++
		rep.Runs += c.runs
		rep.Failures = append(rep.Failures, c.fails...)
		if opts.Log != nil {
			status := "ok"
			if len(c.fails) > 0 {
				status = fmt.Sprintf("%d FAILURES", len(c.fails))
			}
			fmt.Fprintf(opts.Log, "seed %d: %d runs, %s\n", c.t.Seed, c.runs, status)
		}
	}
	digest.Sum(rep.Digest[:0])
	return rep
}

// seedCheck is one fuzzed tuple's checks in progress: the runs made so far,
// each folded into the sweep's digest as it ends, and the failures found.
type seedCheck struct {
	t      Tuple
	runs   int
	fails  []Failure
	digest io.Writer
}

// fail records a failure of engine eng at stage.
func (c *seedCheck) fail(eng, stage, format string, args ...any) {
	c.fails = append(c.fails, Failure{
		Seed: c.t.Seed, Engine: eng, Stage: stage,
		Detail: fmt.Sprintf(format, args...), Tuple: c.t.String(),
	})
}

// ran counts one run of engine eng at stage and folds it into the digest;
// res is nil for a run that failed.
func (c *seedCheck) ran(eng, stage string, res *onepass.Result) {
	c.runs++
	var sum uint64
	var makespan int64
	if res != nil {
		sum, makespan = res.OutputChecksum, int64(res.Makespan)
	}
	fmt.Fprintf(c.digest, "%s %s %016x %d\n", eng, stage, sum, makespan)
}

// config is the tuple's configuration on engine e.
func (c *seedCheck) config(e onepass.Engine) onepass.Config {
	cfg := c.t.Cfg
	cfg.Engine = e
	return cfg
}

// run runs every check for the tuple: the clean all-engine differential with
// reference agreement always; for monoid workloads a per-engine monoid-off
// rerun that must reproduce the clean checksum byte-for-byte (the combining
// layer is an optimization, never an answer change); on even seeds a
// per-engine chaos-faulted rerun (single stage, so node failures are
// survivable — the input is regenerable); on odd seeds a chained two-stage
// pipeline, clean and under a degradation-only schedule (stage-1 output is
// written data a node failure could strand, so chained runs degrade rather
// than kill).
func (c *seedCheck) run() {
	t := c.t
	ref := workloads.Reference(t.Workload, ReferenceBlocks(t.Workload, t.Input, t.Cfg.BlockSize))

	clean := make(map[onepass.Engine]*onepass.Result)
	var wantSum uint64
	var wantEngine string
	for _, e := range onepass.Engines() {
		res, err := onepass.RunWorkload(c.config(e), t.Workload, t.Input)
		c.ran(e.String(), "clean", res)
		if err != nil {
			c.fail(e.String(), "clean", "%v", err)
			continue
		}
		clean[e] = res
		if diff := diffOutput(res.Output, ref); diff != "" {
			c.fail(e.String(), "reference", "output disagrees with reference: %s", diff)
		}
		if wantEngine == "" {
			wantSum, wantEngine = res.OutputChecksum, e.String()
		} else if res.OutputChecksum != wantSum {
			c.fail(e.String(), "clean", "checksum %016x != %s's %016x", res.OutputChecksum, wantEngine, wantSum)
		}
	}

	if t.Workload.Job.Monoid != nil {
		// The same job with its declaration stripped: every engine falls back
		// to grouping raw values for Reduce (no combiner, value-list states),
		// which must produce byte-identical output. Task clones keep a nil
		// monoid nil, so the whole run is monoid-free.
		stripped := *t.Workload
		stripped.Job.Monoid = nil
		for _, e := range onepass.Engines() {
			base := clean[e]
			if base == nil {
				continue
			}
			res, err := onepass.RunWorkload(c.config(e), &stripped, t.Input)
			c.ran(e.String(), "monoid-off", res)
			if err != nil {
				c.fail(e.String(), "monoid-off", "%v", err)
				continue
			}
			if res.OutputChecksum != base.OutputChecksum {
				c.fail(e.String(), "monoid-off", "checksum %016x != monoid-on %016x: combining changed the answer",
					res.OutputChecksum, base.OutputChecksum)
			}
			if diff := diffOutput(res.Output, ref); diff != "" {
				c.fail(e.String(), "monoid-off", "output disagrees with reference: %s", diff)
			}
		}
	}

	if t.Delta != nil {
		c.delta()
	}

	if t.Seed%2 == 0 {
		for _, e := range onepass.Engines() {
			base := clean[e]
			if base == nil {
				continue
			}
			cfg := c.config(e)
			cfg.Faults = onepass.ChaosFaults(t.Seed, cfg.Nodes, base.Makespan)
			res, err := onepass.RunWorkload(cfg, t.Workload, t.Input)
			c.ran(e.String(), "faulted", res)
			if err != nil {
				c.fail(e.String(), "faulted", "%v", err)
				continue
			}
			if res.OutputChecksum != base.OutputChecksum {
				c.fail(e.String(), "faulted", "checksum %016x diverged from clean %016x under %v",
					res.OutputChecksum, base.OutputChecksum, cfg.Faults)
			}
			if res.Counters.Get(engine.CtrFaultsInjected) == 0 {
				c.fail(e.String(), "faulted", "schedule %v injected no faults (schedule dropped?)", cfg.Faults)
			}
		}
	} else {
		c.chained()
	}
}

// delta is the delta equivalence axis: one engine per seed (rotating
// through the registry so the sweep covers all of them) applies the tuple's
// fuzzed delta incrementally — priming preserved state on the base, then
// re-running over changed blocks only — and must reproduce a plain full run
// over the evolved dataset byte for byte, checksum and grouped output both.
func (c *seedCheck) delta() {
	t := c.t
	engines := onepass.Engines()
	e := engines[int(t.Seed)%len(engines)]
	eng := e.String()
	cfg := c.config(e)
	data := onepass.Dataset{Path: "input/" + t.Workload.Name, Size: t.Input, Gen: t.Workload.Gen}
	dr, err := onepass.RunDelta(cfg, data, t.Workload.Job, *t.Delta)
	if err != nil {
		c.ran(eng, "delta-base", nil)
		c.ran(eng, "delta-incremental", nil)
		c.fail(eng, "delta", "%v", err)
		return
	}
	c.ran(eng, "delta-base", dr.Base)
	c.ran(eng, "delta-incremental", dr.Incremental)
	cl := onepass.NewCluster(cfg)
	v2 := onepass.DeltaDataset(data, *t.Delta, cfg.BlockSize)
	if err := cl.Register(v2); err != nil {
		c.fail(eng, "delta", "registering evolved dataset: %v", err)
		return
	}
	job := t.Workload.Job
	job.InputPath = v2.Path
	job.RetainOutput = true
	full, err := cl.RunJob(job)
	c.ran(eng, "delta-full", full)
	if err != nil {
		c.fail(eng, "delta", "full re-run: %v", err)
		return
	}
	if dr.Incremental.OutputChecksum != full.OutputChecksum {
		c.fail(eng, "delta", "incremental checksum %016x != full re-run %016x",
			dr.Incremental.OutputChecksum, full.OutputChecksum)
	}
	if diff := diffOutput(dr.Incremental.Output, full.Output); diff != "" {
		c.fail(eng, "delta", "incremental output disagrees with full re-run: %s", diff)
	}
}

// chained runs the two-stage page-count -> top-k pipeline on every engine:
// clean with a trace sink (both stages must record spans), then under a
// degradation-only fault schedule (both stages' checksums must match the
// clean run and the schedule must actually fire). This is the differential
// form of the chained-job regression: an engine runner that drops the
// trace, audit, or fault schedule on Cluster.RunJob fails here.
func (c *seedCheck) chained() {
	type pair struct{ count, top uint64 }
	clean := make(map[onepass.Engine]*chainedRun)
	var want pair
	var wantEngine string
	for _, e := range onepass.Engines() {
		tl := onepass.NewTraceLog()
		cr, err := c.runChained(c.config(e), "chained", tl)
		if err != nil {
			c.fail(e.String(), "chained", "%v", err)
			continue
		}
		clean[e] = cr
		if cr.span1 == 0 {
			c.fail(e.String(), "chained", "stage 1 recorded no trace events")
		}
		if tl.Len() <= cr.span1 {
			c.fail(e.String(), "chained", "stage 2 recorded no trace events (%d after stage 1, %d after stage 2): trace sink dropped between jobs", cr.span1, tl.Len())
		}
		got := pair{cr.count.OutputChecksum, cr.top.OutputChecksum}
		if wantEngine == "" {
			want, wantEngine = got, e.String()
		} else if got != want {
			c.fail(e.String(), "chained", "stage checksums (%016x,%016x) != %s's (%016x,%016x)",
				got.count, got.top, wantEngine, want.count, want.top)
		}
	}

	for _, e := range onepass.Engines() {
		base := clean[e]
		if base == nil {
			continue
		}
		cfg := c.config(e)
		// Degradations land well inside stage 1's clean makespan so the
		// schedule is guaranteed to fire; offsets re-arm per stage.
		ms := base.count.Makespan
		cfg.Faults = onepass.FaultSchedule{Faults: []onepass.Fault{
			{Kind: onepass.DiskSlow, Node: 0, At: ms / 5, For: ms / 2, Factor: 4},
			{Kind: onepass.NetDegrade, Node: 1, At: ms / 4, For: ms / 2, Factor: 4},
			{Kind: onepass.Straggler, Node: 2, At: ms / 3, For: ms / 2, Factor: 3},
		}}
		cr, err := c.runChained(cfg, "chained-faulted", nil)
		if err != nil {
			c.fail(e.String(), "chained-faulted", "%v", err)
			continue
		}
		if cr.count.OutputChecksum != base.count.OutputChecksum {
			c.fail(e.String(), "chained-faulted", "stage 1 checksum %016x diverged from clean %016x",
				cr.count.OutputChecksum, base.count.OutputChecksum)
		}
		if cr.top.OutputChecksum != base.top.OutputChecksum {
			c.fail(e.String(), "chained-faulted", "stage 2 checksum %016x diverged from clean %016x",
				cr.top.OutputChecksum, base.top.OutputChecksum)
		}
		if cr.count.Counters.Get(engine.CtrFaultsInjected) == 0 {
			c.fail(e.String(), "chained-faulted", "stage 1 injected no faults (RunJob dropped the schedule?)")
		}
	}
}

// chainedRun holds both stages' results of one pipeline execution.
type chainedRun struct {
	count, top *onepass.Result
	span1      int // trace events recorded by the end of stage 1
}

// runChained runs the pipeline once, recording each stage's job as a run
// of the given stage.
func (c *seedCheck) runChained(cfg onepass.Config, stage string, tl *onepass.TraceLog) (*chainedRun, error) {
	if tl != nil {
		cfg.Trace = tl
	}
	eng := cfg.Engine.String()
	cr := &chainedRun{}
	cl := onepass.NewCluster(cfg)
	count := onepass.PageFrequency(c.t.Clicks)
	if err := cl.Register(onepass.Dataset{Path: "input/clicks", Size: c.t.Input, Gen: count.Gen}); err != nil {
		return cr, err
	}
	stage1 := count.Job
	stage1.InputPath = "input/clicks"
	stage1.OutputPath = "out/counts"
	stage1.RetainOutput = true
	res1, err := cl.RunJob(stage1)
	c.ran(eng, stage+"-count", res1)
	if err != nil {
		return cr, fmt.Errorf("stage 1: %w", err)
	}
	cr.count = res1
	if tl != nil {
		cr.span1 = tl.Len()
	}
	stage2 := onepass.TopK(5)
	stage2.InputPath = "out/counts"
	stage2.RetainOutput = true
	res2, err := cl.RunJob(stage2)
	c.ran(eng, stage+"-top", res2)
	if err != nil {
		return cr, fmt.Errorf("stage 2: %w", err)
	}
	cr.top = res2
	return cr, nil
}

// diffOutput compares an engine's grouped output against the reference map
// and describes the first discrepancy ("" if identical).
func diffOutput(got, want map[string]string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d keys, reference has %d", len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			return fmt.Sprintf("key %q missing", k)
		}
		if gv != wv {
			return fmt.Sprintf("key %q: value %q, reference %q", k, truncate(gv), truncate(wv))
		}
	}
	return ""
}

func truncate(s string) string {
	if len(s) > 48 {
		return s[:48] + "..."
	}
	return s
}

// Markdown renders the report as the artifact cmd/check uploads from CI.
func (r *Report) Markdown(baseSeed int64) string {
	out := fmt.Sprintf("# Differential check report\n\nbase seed %d, %d tuples, %d runs, %d failure(s)\nruns digest (SHA-256 of each run's engine, stage, output checksum and makespan, in run order): %x\n",
		baseSeed, r.Tuples, r.Runs, len(r.Failures), r.Digest)
	if len(r.Failures) == 0 {
		return out + "\nAll engines agree on every tuple; all audits clean.\n"
	}
	out += "\n| seed | engine | stage | detail |\n|---|---|---|---|\n"
	for _, f := range r.Failures {
		out += fmt.Sprintf("| %d | %s | %s | %s |\n", f.Seed, f.Engine, f.Stage, f.Detail)
	}
	out += "\nFailing tuples:\n\n"
	seen := map[int64]bool{}
	for _, f := range r.Failures {
		if !seen[f.Seed] {
			seen[f.Seed] = true
			out += fmt.Sprintf("- `%s`\n", f.Tuple)
		}
	}
	return out
}
