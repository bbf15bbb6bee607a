package onepass

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// parallelRun executes one audited, traced run at the given intra-run pool
// width and returns the result, its JSON serialization and the Chrome trace
// bytes.
func parallelRun(t *testing.T, e Engine, w *Workload, workers int) (*Result, []byte, []byte) {
	t.Helper()
	cfg := tinyConfig(e)
	cfg.Audit = true
	cfg.Parallelism = workers
	tl := NewTraceLog()
	cfg.Trace = tl
	res, err := RunWorkload(cfg, w, 256<<10)
	if err != nil {
		t.Fatalf("%v (parallelism %d): %v", e, workers, err)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return res, rj, buf.Bytes()
}

// The tentpole invariant: running real data work on a pool of worker
// goroutines must be unobservable inside the simulation. For every engine,
// serial and pooled runs must serialize to byte-identical results (output
// checksum, counters, makespan, CPU phase accounting) and byte-identical
// Chrome traces, with the runtime invariant audits armed throughout — at
// explicit widths and at the width DefaultConfig picks for this host.
func TestParallelIntraRunByteIdentical(t *testing.T) {
	workloads := []struct {
		name string
		make func() *Workload
	}{
		// Sessionization exercises the holistic (list-building) reduce path;
		// per-user count exercises the map-combine aggregator path.
		{"sessionization", func() *Workload { return Sessionization(tinyClicks()) }},
		{"per-user-count", func() *Workload { return PerUserCount(tinyClicks()) }},
	}
	for _, wl := range workloads {
		for _, e := range Engines() {
			_, baseRes, baseTrace := parallelRun(t, e, wl.make(), 1)
			for _, workers := range []int{0, 4, DefaultConfig().Parallelism} {
				_, res, trace := parallelRun(t, e, wl.make(), workers)
				if !bytes.Equal(res, baseRes) {
					t.Errorf("%v/%s: result at parallelism %d differs from serial:\n  serial:   %s\n  parallel: %s",
						e, wl.name, workers, firstDiff(baseRes, res), firstDiff(res, baseRes))
				}
				if !bytes.Equal(trace, baseTrace) {
					t.Errorf("%v/%s: trace at parallelism %d differs from serial (%d vs %d bytes)",
						e, wl.name, workers, len(trace), len(baseTrace))
				}
			}
		}
	}
	// DefaultConfig sizes the pool to the host, so on one core it must
	// resolve to the inline path: at most one closure at a time.
	t.Run("GOMAXPROCS=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		workers := DefaultConfig().Parallelism
		if workers != 1 {
			t.Fatalf("DefaultConfig().Parallelism = %d, want 1", workers)
		}
		for _, e := range Engines() {
			res, _, _ := parallelRun(t, e, Sessionization(tinyClicks()), workers)
			if res.Pool.Dispatched == 0 || res.Pool.MaxInFlight > 1 {
				t.Errorf("%v: %d closures dispatched, peak %d in flight, want an inline run",
					e, res.Pool.Dispatched, res.Pool.MaxInFlight)
			}
		}
	})
}

// firstDiff returns a short window of a around the first byte where a and b
// diverge, for readable failure output.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-30, i+50
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return string(a[lo:hi])
}

// A chained pipeline shares one cluster (and one virtual clock) across
// stages; the pool must not perturb cross-job state either.
func TestParallelIntraRunChainedByteIdentical(t *testing.T) {
	run := func(workers int) []byte {
		cfg := tinyConfig(HashIncremental)
		cfg.Audit = true
		cfg.Parallelism = workers
		cl := NewCluster(cfg)
		w := PageFrequency(tinyClicks())
		if err := cl.Register(Dataset{Path: "in/clicks", Size: 256 << 10, Gen: w.Gen}); err != nil {
			t.Fatal(err)
		}
		stage1 := w.Job
		stage1.InputPath = "in/clicks"
		stage1.OutputPath = "out/counts"
		stage1.RetainOutput = true
		res1, err := cl.RunJob(stage1)
		if err != nil {
			t.Fatal(err)
		}
		stage2 := TopK(5)
		stage2.InputPath = "out/counts"
		stage2.RetainOutput = true
		res2, err := cl.RunJob(stage2)
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal([]*Result{res1, res2})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	serial := run(0)
	if pooled := run(4); !bytes.Equal(serial, pooled) {
		t.Fatalf("chained pipeline diverges under the worker pool:\n  at: %s", firstDiff(serial, pooled))
	}
}
