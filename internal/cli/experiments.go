package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"onepass/internal/experiments"
	"onepass/internal/parallel"
)

// experimentsHeader opens the report Experiments renders: EXPERIMENTS.md's
// text above the scale line.
const experimentsHeader = `# EXPERIMENTS — paper vs measured

Reproduction of every table and figure in "Towards Scalable One-Pass
Analytics Using MapReduce" (Mazur, Li, Diao, Shenoy), regenerated by
` + "`cmd/experiments`" + ` on a simulated 10-node cluster. Absolute numbers are
virtual time at simulation scale; the reproduction targets are the ratios
and shapes each experiment calls out. See DESIGN.md for the substitution
table and cost-model calibration.

Experiments render concurrently (` + "`-parallel N`" + ` at a time, default
GOMAXPROCS), each simulation on a private simulated cluster and a run that
several experiments share executed once; reports are byte-identical to a
serial sweep (` + "`TestParallelSweepByteIdenticalToSerial`" + ` renders the whole
test-scale registry on four workers and requires the bytes and run count
pinned from a serial render).
` + "`-exp ID`" + ` regenerates the experiments whose ID (the part of each heading
below before the dash) contains ID. Every sweep runs its simulations
afresh — no result is persisted between invocations — so this report is
always the current code's. CI's experiment-smoke job regenerates the Table
I rows with ` + "`go run ./cmd/experiments -exp 'Table I' -parallel 4 -q -audit`" + `
at a reduced scale, with the invariant audits armed, and re-renders this
report at default scale to compare it byte for byte with the checked-in
file (see .github/workflows/ci.yml).

Each simulation can additionally run its own pure data work (map parse
loops, sorts, combine flushes, reducer folds, merge passes) on a bounded
intra-run worker pool: ` + "`-parallel-intra N`" + ` on this command, ` + "`runjob`" + `, and
` + "`check`" + `. Every report, trace,
and counter is byte-identical at any width — ` + "`TestFingerprint`" + ` runs the
cases its ` + "`pooledCase`" + ` names serial and pooled against the same pinned
line — so the knob is purely a wall-clock lever. The nightly
parallel-speedup job times ` + "`runjob`" + ` serial vs its default width
with a 1.2x speedup floor; see README "Intra-run parallelism" for
the measured per-engine closure shares that bound the speedup.

Every executed run can additionally emit observability artifacts:
` + "`-trace-dir DIR`" + ` writes one Chrome trace-event file per run (open in
ui.perfetto.dev; span tracks per node/task plus counter tracks for cluster
utilization and in-flight work), and ` + "`-profile-dir DIR`" + ` writes one
RunProfile JSON per run — the deterministic post-run analysis from
` + "`internal/profile`" + `: the critical path through the task/phase span DAG,
makespan attribution (cpu / iowait / disk-queue / network / barrier-wait /
scheduler-idle, summing exactly to the makespan), per-phase duration
histograms and skew, shuffle partition balance, and per-node utilization.
The same analysis prints from ` + "`runjob -profile`" + `, and ` + "`TestFingerprint`" + `
pins the profile JSON of every case in ` + "`testdata/fingerprint.txt`" + ` byte for
byte, so a run whose shape drifts — or quietly improves — fails until the
fingerprint is re-pinned with ` + "`go test . -run TestFingerprint -update-golden`" + `.

Resident (iterative) is the chained-computation case the paper leaves on
the table and M3R (Shinnar et al., VLDB 2012) makes: the same PageRank
power-iteration chain runs on the best disk engine and on the resident
in-memory engine (` + "`internal/resident`" + `), which keeps reduce output alive in
reducer memory and republishes it as memory-resident DFS blocks. The
report attributes per-iteration makespan and disk reads to each chain —
the resident chain must read zero disk bytes after the init stage while
agreeing bit-for-bit on the final ranks (fixed-point rank arithmetic).

The final section, Service (saturation), goes beyond single-run
reproduction: a multi-tenant job service (` + "`internal/service`" + `) multiplexes
concurrent jobs from an open-loop client fleet (` + "`internal/loadgen`" + `,
seeded Poisson arrivals on virtual time) over one shared cluster, with a
fair-share scheduler handing out map/reduce slots under per-tenant
weights, priorities, and quotas. Each engine is calibrated to its own
service rate, then swept at 0.25x/1x/4x offered load; the report shows
per-tenant queue-wait and job-latency quantiles bending at the capacity
knee. Fairness invariants (tenant-starvation, fair-pick,
slot-conservation, slot-share) are armed on every run through the same
audit machinery as the conservation ledgers. The interactive version is
` + "`cmd/jobserve`" + ` (tenant specs, arrival processes, and fleet shape on the
command line); CI's service-smoke job runs one audited fixed-seed fleet,
whose audits must pass, and a rigged strict-priority fleet that the
starvation audit must catch.

Incremental (delta sweep) measures the i2MapReduce-style extension
(DESIGN.md §15): after a run primes fine-grained reduce-side state, a
seeded delta (record updates + deletes in a deterministic block subset,
plus appended blocks) evolves the input by 0.1 % / 1 % / 10 %, and the
incremental re-run — changed blocks plus preserved state only — is
compared against a full re-run over the evolved dataset on the same
engine, across all six engines. Every cell checks byte-identity of the
grouped output (the verdict is printed in the row); the report shows
makespan and disk-bytes-read for both paths, plus the sliding-window
sessionization scenario where an append-only delta re-folds only
trailing windows. The same comparison runs standalone as
` + "`runjob -delta FRAC`" + ` and is gated by CI's incremental-smoke job.

The per-package kernel benchmarks run once per CI push, and what each
allocates per op at steady state is pinned by a ` + "`TestAllocBudget*`" + ` test
beside it, so ` + "`go test ./...`" + ` fails on a stray allocation. End to end,
` + "`bench/`" + `'s ` + "`allocs_per_record`" + ` (a 5 % bound in ` + "`BENCHMARK.json`" + `) and the
root package's allocation tests hold the engines' figures.

`

// Experiments is the experiments command: it renders the paper-vs-measured
// report of every experiment whose ID contains -exp to stdout and, with
// -out, to a file. -cpuprofile, -memprofile and -exectrace profile the
// sweep's simulations, not the report's rendering.
func Experiments(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("experiments", stderr)
	scaleFlag := fs.Float64("scale", 0, "dataset scale factor (e.g. 0.001; 0 keeps the default, 1/4000)")
	out := fs.String("out", "", "write the markdown report to this file instead of stdout only")
	only := fs.String("exp", "", "run only experiments whose ID contains this substring (e.g. 'Table', 'Fig 2')")
	par := fs.Int("parallel", 0, "max experiments rendering at once, one simulation each (0 = GOMAXPROCS, 1 = serial)")
	traceDir := fs.String("trace-dir", "", "write a Chrome trace-event file per executed run into this directory")
	profileDir := fs.String("profile-dir", "", "write a RunProfile JSON (critical path, makespan attribution) per executed run into this directory")
	audit := fs.Bool("audit", false, "arm runtime invariant audits on every executed run (a violation aborts the sweep)")
	parIntra := fs.Int("parallel-intra", 0,
		"worker goroutines for intra-run data work inside each simulation (0 or 1 = serial; results are byte-identical either way)")
	quiet := fs.Bool("q", false, "suppress progress logging")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile of the sweep to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a host allocation profile, taken after the sweep, to this file")
	execTrace := fs.String("exectrace", "", "write a Go execution trace of the sweep to this file (go tool trace)")
	if err := parse(fs, args); err != nil {
		return err
	}

	scale := experiments.DefaultScale()
	if *scaleFlag > 0 {
		scale.Factor = *scaleFlag
	}
	sess := experiments.NewSession(scale)
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
		sess.TraceDir = *traceDir
	}
	if *profileDir != "" {
		if err := os.MkdirAll(*profileDir, 0o755); err != nil {
			return err
		}
		sess.ProfileDir = *profileDir
	}
	sess.Audit = *audit
	if *parIntra > 0 {
		sess.Parallelism = *parIntra
	}
	if !*quiet {
		sess.Log = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	// renderWall sums the wall-clock each experiment spent rendering; over
	// the sweep's elapsed time it is the average number in flight.
	var renderWall atomic.Int64
	var exps []experiments.Experiment
	for _, e := range experiments.Experiments() {
		if *only == "" || strings.Contains(e.ID, *only) {
			render := e.Render
			e.Render = func(s *experiments.Session) *experiments.Report {
				defer func(t time.Time) { renderWall.Add(int64(time.Since(t))) }(time.Now())
				return render(s)
			}
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		return fmt.Errorf("no experiment ID contains %q", *only)
	}

	stopProfiles, err := startHostProfiles(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		return err
	}
	start := time.Now()
	reps, runErr := sess.RunAll(context.Background(), *par, exps)
	elapsed := time.Since(start)
	if err := stopProfiles(); err != nil || runErr != nil {
		return errors.Join(runErr, err)
	}

	var b strings.Builder
	b.WriteString(experimentsHeader)
	fmt.Fprintf(&b, "Scale factor: %g (a 256 GB paper dataset becomes %d MB); block size %d KB; %d nodes; %d reducers.\n\n",
		scale.Factor, scale.Bytes(256)>>20, scale.BlockSize>>10, scale.Nodes, scale.Reducers)
	for _, rep := range reps {
		b.WriteString(rep.Render())
		b.WriteString("\n")
	}

	fmt.Fprint(stdout, b.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *out)
	}

	// Parallelism is the average number of experiments rendering at once:
	// 1.00x with -parallel 1, and on an idle multi-core host the wall-clock
	// speedup over a serial sweep (compare elapsed against a -parallel 1
	// invocation for the exact figure). It counts all of a renderer's time,
	// so the simulations Resident, Service and Incremental run outside the
	// session cache are in it, as is time spent waiting on a shared run.
	runs, runWall := sess.RunStats()
	rendered := time.Duration(renderWall.Load())
	fmt.Fprintf(stderr, "rendered %d experiments on %d workers in %s wall (%s summed render time; %d runs executed, %s in-run) — %.2fx parallelism\n",
		len(reps), parallel.Workers(*par), elapsed.Round(time.Millisecond), rendered.Round(time.Millisecond),
		runs, runWall.Round(time.Millisecond), float64(rendered)/float64(elapsed))
	if ws := sess.PoolStats(); ws.Dispatched > 0 && sess.Parallelism > 1 {
		fmt.Fprintf(stderr, "intra-run pool (width %d): %d closures, %s aggregate closure time, peak %d in flight\n",
			sess.Parallelism, ws.Dispatched, ws.Busy.Round(time.Millisecond), ws.MaxInFlight)
	}
	return nil
}
