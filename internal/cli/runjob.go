package cli

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"time"

	"onepass"
	"onepass/internal/engine"
	"onepass/internal/metrics"
	"onepass/internal/textfmt"
	"onepass/internal/workloads"
)

// deltaExcludes are the flags a -delta run cannot honour: it evolves a
// stored, fault-free input and prints its comparison report, nothing else.
var deltaExcludes = []string{"stream", "fault", "fault-seed", "json", "trace", "gantt", "profile", "profile-json", "progress"}

// Runjob is the runjob command: it executes one workload on one engine over
// the simulated cluster and prints the run's metrics.
func Runjob(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("runjob", stderr)
	workload := fs.String("workload", "sessionization",
		strings.Join(workloads.Names(), " | "))
	engineName := fs.String("engine", "hadoop",
		strings.Join(onepass.EngineNames(), " | "))
	size := fs.String("size", "32MB", "input size (e.g. 64MB, 1GB)")
	nodes := fs.Int("nodes", 10, "cluster nodes")
	reducers := fs.Int("reducers", 20, "reduce tasks")
	blockSize := fs.String("block", "1MB", "DFS block size")
	ssd := fs.Bool("ssd", false, "put intermediate data on a per-node SSD")
	split := fs.Bool("split", false, "split storage/compute nodes")
	memory := fs.String("taskmem", "", "per-task memory budget (default: node memory / 4)")
	streamSecs := fs.Float64("stream", 0, "stream the input in over this many virtual seconds (0 = preloaded)")
	progress := fs.Bool("progress", false, "print task-completion progress")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto or chrome://tracing)")
	jsonOut := fs.Bool("json", false, "print the full engine result as JSON instead of the text report")
	gantt := fs.Bool("gantt", false, "render the trace as a plain-text Gantt chart (implies tracing)")
	profileFlag := fs.Bool("profile", false,
		"print the post-run profile: makespan attribution, critical path, span statistics (implies tracing)")
	profileJSON := fs.String("profile-json", "", "write the run profile as JSON to this file (implies tracing)")
	faultSpec := fs.String("fault", "",
		"fault schedule: comma-separated kind@T[+W]:nN[xF], kinds fail|disk-slow|net-slow|straggler (e.g. 'fail@30s:n3,disk-slow@10s+20s:n1x8')")
	faultSeed := fs.Int64("fault-seed", 0, "derive a chaos fault schedule from this seed (ignored when -fault is set)")
	parallel := fs.Int("parallel-intra", onepass.DefaultConfig().Parallelism,
		"worker goroutines for intra-run data work (default GOMAXPROCS; 0 or 1 = serial; results are byte-identical either way)")
	deltaFrac := fs.Float64("delta", 0,
		"evolve this fraction of the input (seeded updates+deletes+appends) and compare the incremental re-run against a full re-run (click workloads only; no output or fault flags)")
	deltaSeed := fs.Uint64("delta-seed", 42, "delta derivation seed (with -delta)")
	cpuProfile := fs.String("cpuprofile", "",
		"write a host CPU profile of the job run to this file (go tool pprof); with -delta, of RunDelta alone, not the full re-run it is compared against")
	memProfile := fs.String("memprofile", "",
		"write a host allocation profile, taken after the job run, to this file; with -delta, taken when RunDelta returns")
	execTrace := fs.String("exectrace", "",
		"write a Go execution trace of the job run to this file (go tool trace); with -delta, of RunDelta alone, like -cpuprofile")
	if err := parse(fs, args); err != nil {
		return err
	}

	cfg := onepass.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.Reducers = *reducers
	cfg.SSDIntermediate = *ssd
	cfg.SplitStorageCompute = *split
	cfg.DiscardOutput = true
	cfg.Parallelism = *parallel

	var err error
	if cfg.BlockSize, err = textfmt.ParseSize(*blockSize); err != nil {
		return fmt.Errorf("bad -block: %v", err)
	}
	inputSize, err := textfmt.ParseSize(*size)
	if err != nil {
		return fmt.Errorf("bad -size: %v", err)
	}
	if *memory != "" {
		if cfg.MemoryPerTask, err = textfmt.ParseSize(*memory); err != nil {
			return fmt.Errorf("bad -taskmem: %v", err)
		}
	}
	if cfg.Engine, err = onepass.ParseEngine(*engineName); err != nil {
		return fmt.Errorf("bad -engine: %v", err)
	}
	cc := onepass.DefaultClickConfig()
	w, err := workloads.ByName(*workload, cc, onepass.DefaultDocConfig())
	if err != nil {
		return fmt.Errorf("bad -workload: %v", err)
	}
	data := onepass.Dataset{Path: "input/" + w.Name, Size: inputSize, Gen: w.Gen}

	if *deltaFrac != 0 {
		if *deltaFrac < 0 || *deltaFrac > 1 {
			return fmt.Errorf("bad -delta: %v: must be in (0,1]", *deltaFrac)
		}
		var excluded []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(deltaExcludes, f.Name) {
				excluded = append(excluded, "-"+f.Name)
			}
		})
		if len(excluded) > 0 {
			return fmt.Errorf("-delta cannot be combined with %s: a delta run evolves a stored, fault-free input and prints its comparison report only",
				strings.Join(excluded, ", "))
		}
		if !w.Clicks {
			return fmt.Errorf("-delta requires a click workload, not %q", *workload)
		}
		stopProfiles, err := startHostProfiles(*cpuProfile, *memProfile, *execTrace)
		if err != nil {
			return err
		}
		return deltaCompare(stdout, cfg, data, w.Job, onepass.DefaultDelta(cc, *deltaSeed, *deltaFrac), stopProfiles)
	}

	if *streamSecs > 0 {
		data.ArrivalRate = float64(inputSize) / *streamSecs
	}
	var tl *onepass.TraceLog
	if *tracePath != "" || *gantt || *profileFlag || *profileJSON != "" {
		tl = onepass.NewTraceLog()
		cfg.Trace = tl
	}
	job := w.Job
	if *progress {
		job.Progress = func(phase string, done, total int) {
			if done == total || done%25 == 0 {
				fmt.Fprintf(stderr, "  %s %d/%d\n", phase, done, total)
			}
		}
	}
	if *faultSpec != "" {
		if cfg.Faults, err = onepass.ParseFaults(*faultSpec); err != nil {
			return fmt.Errorf("bad -fault: %v", err)
		}
	} else if *faultSeed != 0 {
		// Derive the chaos horizon from a fault-free run of the same job, so
		// every fault lands while the job is actually running. It is not
		// traced: the trace and profile describe the faulted run alone.
		probe := cfg
		probe.Trace = nil
		base, err := onepass.Run(probe, data, job)
		if err != nil {
			return err
		}
		cfg.Faults = onepass.ChaosFaults(*faultSeed, *nodes, base.Makespan)
		fmt.Fprintf(stderr, "chaos schedule (seed %d): %s\n", *faultSeed, cfg.Faults.String())
	}
	stopMeter := startHostMeter()
	stopProfiles, err := startHostProfiles(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		stopMeter()
		return err
	}
	res, err := onepass.Run(cfg, data, job)
	err = errors.Join(err, stopProfiles())
	host := stopMeter()
	if err != nil {
		return err
	}
	var prof *onepass.RunProfile
	if tl != nil {
		// Counter tracks (utilization, in-flight work) render in Perfetto
		// alongside the spans; attach before the Chrome export.
		onepass.AttachCounterTracks(tl, res)
		if prof, err = onepass.ComputeProfile(tl, res); err != nil {
			return fmt.Errorf("profile: %v", err)
		}
	}

	if *tracePath != "" {
		if err := writeTrace(*tracePath, tl); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d trace events to %s\n", tl.Len(), *tracePath)
	}
	if *profileJSON != "" {
		b, err := prof.MarshalIndentJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*profileJSON, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote profile to %s\n", *profileJSON)
	}

	poolWidth := max(cfg.Parallelism, 1) // 0 and 1 both mean inline
	if *jsonOut {
		if err := writeResultJSON(stdout, res, poolWidth, host); err != nil {
			return err
		}
		// stdout stays one JSON document: the views go to stderr.
		if *profileFlag {
			fmt.Fprint(stderr, prof.Report())
		}
		if *gantt {
			fmt.Fprint(stderr, tl.Gantt(72))
			fmt.Fprint(stderr, prof.NodeUtilReport())
		}
		return nil
	}
	writeRunReport(stdout, res, poolWidth)
	if *profileFlag {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, prof.Report())
	}
	if *gantt {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "Trace Gantt:")
		fmt.Fprint(stdout, tl.Gantt(72))
		fmt.Fprint(stdout, prof.NodeUtilReport())
	}
	return nil
}

// writeTrace writes tl as a Chrome trace-event file at path.
func writeTrace(path string, tl *onepass.TraceLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeResultJSON prints runjob -json's document. The deterministic Result
// lives under "result"; the real-time pool and host-memory stats
// (wall-clock and GC-paced, hence nondeterministic) live under
// "diagnostics" so determinism checks can select one key.
func writeResultJSON(w io.Writer, res *onepass.Result, poolWidth int, host hostStats) error {
	out := struct {
		Result      *onepass.Result `json:"result"`
		Diagnostics diagnostics     `json:"diagnostics"`
	}{res, diagnostics{Pool: poolStats{
		Workers:     poolWidth,
		Dispatched:  res.Pool.Dispatched,
		MaxInFlight: res.Pool.MaxInFlight,
		BusyMS:      float64(res.Pool.Busy) / float64(time.Millisecond),
	}, hostStats: host}}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// writeRunReport prints runjob's text report of one run.
func writeRunReport(w io.Writer, res *onepass.Result, poolWidth int) {
	fmt.Fprintln(w, res.Summary())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Task timeline:")
	fmt.Fprint(w, res.RenderTimeline(72))
	fmt.Fprintln(w)
	fmt.Fprintf(w, "cpu-util   |%s| mean=%.2f\n", res.CPUUtil.Downsample(res.CPUUtil.Len()/72+1).Spark(), res.CPUUtil.Mean())
	fmt.Fprintf(w, "cpu-iowait |%s| mean=%.2f\n", res.Iowait.Downsample(res.Iowait.Len()/72+1).Spark(), res.Iowait.Mean())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "CPU by phase:")
	for _, ph := range res.CPU.Phases() {
		fmt.Fprintf(w, "  %-14s %8.2f s (%4.1f%%)\n", ph, res.CPU.Seconds(ph), 100*res.CPU.Share(ph))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Counters:")
	for _, name := range res.Counters.Names() {
		fmt.Fprintf(w, "  %-28s %.0f\n", name, res.Counters.Get(name))
	}
	fmt.Fprintln(w)
	// Aggregate closure time over the wall clock of a serial run is the Amdahl
	// numerator for what the pool can overlap.
	fmt.Fprintf(w, "Pool: %d workers, %d closures dispatched, peak %d in flight, %s aggregate closure time\n",
		poolWidth, res.Pool.Dispatched, res.Pool.MaxInFlight, res.Pool.Busy.Round(time.Millisecond))
	if len(res.Snapshots) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "Early answers: %d snapshots, first at %v\n", len(res.Snapshots), res.Snapshots[0].At)
	}
	if len(res.Progress) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Progress vs accuracy (map fraction -> output coverage):")
		for _, pp := range res.Progress {
			cov := 0.0
			if res.OutputPairs > 0 {
				cov = float64(pp.Pairs) / float64(res.OutputPairs)
			}
			fmt.Fprintf(w, "  t=%-12v map=%5.1f%%  pairs=%-9d coverage=%5.1f%%  spilled=%d\n",
				pp.At, 100*pp.MapFraction, pp.Pairs, 100*cov, pp.SpilledBytes)
		}
	}
}

// deltaCompare runs the -delta comparison: the incremental path (prime on
// the base, re-run over changed blocks plus preserved state) against a full
// re-run over the evolved dataset on a fresh cluster. The report is
// deterministic — same flags, same bytes — and the command fails if the
// outputs diverge, so CI can gate on it directly. stopProfiles runs as soon
// as RunDelta returns: the host profiles cover the delta path, not the full
// re-run it is checked against.
func deltaCompare(w io.Writer, cfg onepass.Config, data onepass.Dataset, job onepass.Job, d onepass.Delta, stopProfiles func() error) error {
	cfg.DiscardOutput = false
	dr, err := onepass.RunDelta(cfg, data, job, d)
	if err := errors.Join(err, stopProfiles()); err != nil {
		return err
	}
	cl := onepass.NewCluster(cfg)
	v2 := onepass.DeltaDataset(data, d, cfg.BlockSize)
	if err := cl.Register(v2); err != nil {
		return err
	}
	job.InputPath = v2.Path
	job.RetainOutput = true
	full, err := cl.RunJob(job)
	if err != nil {
		return err
	}
	fullDisk := cl.DiskBytesRead()
	exact, err := deltaExact(dr)
	if err != nil {
		return err
	}

	st := dr.Stats
	fmt.Fprintf(w, "Incremental vs full re-run: %s, delta %.3g (seed %d)\n", job.Name, d.DirtyFrac, d.Seed)
	fmt.Fprintf(w, "  base:        %d blocks, phase %.2fs (merge %.2fs), %s disk read (priming)\n",
		st.BaseBlocks, st.BaseSpan.Seconds(), dr.Base.Makespan.Seconds(), metrics.FormatBytes(st.BaseDiskReadBytes))
	fmt.Fprintf(w, "  delta:       %d dirty + %d appended blocks\n", st.DirtyBlocks, st.AppendedBlocks)
	fmt.Fprintf(w, "  incremental: phase %.2fs (merge %.2fs), %s disk read, %d/%d keys re-folded, state %s\n",
		st.IncrementalSpan.Seconds(), dr.Incremental.Makespan.Seconds(), metrics.FormatBytes(st.IncrementalDiskReadBytes),
		st.AffectedKeys, st.TotalKeys, metrics.FormatBytes(float64(st.StateBytes)))
	fmt.Fprintf(w, "  full re-run: makespan %.2fs, %s disk read\n",
		full.Makespan.Seconds(), metrics.FormatBytes(fullDisk))
	fmt.Fprintf(w, "  exact:       %s\n", exact)

	if dr.Incremental.OutputChecksum != full.OutputChecksum || !sameOutput(dr.Incremental.Output, full.Output) {
		fmt.Fprintf(w, "  verdict: OUTPUT DIVERGED (incremental %016x, full %016x)\n",
			dr.Incremental.OutputChecksum, full.OutputChecksum)
		return fmt.Errorf("runjob -delta: incremental output diverged from the full re-run")
	}
	fmt.Fprintf(w, "  verdict: byte-identical output (checksum %016x, %d keys)\n",
		full.OutputChecksum, len(full.Output))
	// The phase span covers what the disk bytes do — capture, state publish
	// and merge — so the two verdicts compare like with like.
	if st.IncrementalSpan < full.Makespan {
		fmt.Fprintf(w, "  verdict: incremental phase faster than the full re-run (%.3fs < %.3fs)\n",
			st.IncrementalSpan.Seconds(), full.Makespan.Seconds())
	} else {
		fmt.Fprintf(w, "  verdict: incremental phase no faster than the full re-run (%.3fs >= %.3fs)\n",
			st.IncrementalSpan.Seconds(), full.Makespan.Seconds())
	}
	if st.IncrementalDiskReadBytes < fullDisk {
		fmt.Fprintf(w, "  verdict: incremental read strictly fewer disk bytes (%s < %s)\n",
			metrics.FormatBytes(st.IncrementalDiskReadBytes), metrics.FormatBytes(fullDisk))
	} else {
		fmt.Fprintf(w, "  verdict: incremental read no fewer disk bytes (%s >= %s; preserved state rivals the input at this scale)\n",
			metrics.FormatBytes(st.IncrementalDiskReadBytes), metrics.FormatBytes(fullDisk))
	}
	return nil
}

// deltaExact renders the delta run's figures that the report's rounded
// seconds hide, as key=value fields: the incremental run's makespan (ns),
// sort and merge comparisons, output checksum and the SHA-256 of its
// Result JSON, the base run's makespan, and the SHA-256 of the DeltaStats
// JSON. Two builds whose delta runs differ anywhere differ here.
func deltaExact(dr *onepass.DeltaResult) (string, error) {
	rj, err := json.Marshal(dr.Incremental)
	if err != nil {
		return "", err
	}
	stats, err := json.Marshal(dr.Stats)
	if err != nil {
		return "", err
	}
	inc := dr.Incremental
	return fmt.Sprintf("makespan=%d sort=%.0f merge=%.0f checksum=%016x result=%x base=%d stats=%x",
		int64(inc.Makespan), inc.Counters.Get(engine.CtrSortComparisons), inc.Counters.Get(engine.CtrMergeComparisons),
		inc.OutputChecksum, sha256.Sum256(rj), int64(dr.Base.Makespan), sha256.Sum256(stats)), nil
}

func sameOutput(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// diagnostics is the runjob -json block for real-time (non-deterministic)
// run observability, kept out of the Result proper so serial and pooled
// runs still serialize byte-identically once this key is stripped.
type diagnostics struct {
	Pool poolStats `json:"pool"`
	hostStats
}

// hostStats is what the job run cost the host process: heap bytes and
// objects allocated while it ran, and the high-water mark of live heap
// bytes. Set against the result's map.input.bytes it is the allocation
// ratio the benchmark reports as alloc_bytes_per_record.
type hostStats struct {
	AllocBytes    uint64 `json:"alloc_bytes"`
	Allocs        uint64 `json:"allocs"`
	HeapPeakBytes uint64 `json:"heap_peak_bytes"`
}

// startHostMeter starts measuring; the returned function stops and reports.
// Allocation totals are exact runtime counters; the heap peak is a 10 ms
// poll of runtime/metrics (which does not stop the world), so a spike
// between two polls is missed.
func startHostMeter() (stop func() hostStats) {
	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	rtmetrics.Read(samples)
	bytes0, objs0 := samples[0].Value.Uint64(), samples[1].Value.Uint64()
	peak := samples[2].Value.Uint64()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		heap := samples[2:] // the caller reads samples again only after done
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				rtmetrics.Read(heap)
				peak = max(peak, heap[0].Value.Uint64())
			}
		}
	}()
	return func() hostStats {
		close(quit)
		<-done
		rtmetrics.Read(samples)
		return hostStats{
			AllocBytes:    samples[0].Value.Uint64() - bytes0,
			Allocs:        samples[1].Value.Uint64() - objs0,
			HeapPeakBytes: max(peak, samples[2].Value.Uint64()),
		}
	}
}

// poolStats mirrors sim.WorkStats for JSON consumers.
type poolStats struct {
	Workers     int     `json:"workers"`
	Dispatched  int64   `json:"dispatched"`
	MaxInFlight int64   `json:"max_in_flight"`
	BusyMS      float64 `json:"busy_ms"`
}
