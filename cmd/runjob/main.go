// Command runjob executes one workload on one engine over the simulated
// cluster and prints the run's metrics: the quickest way to poke at the
// system.
//
//	runjob -workload sessionization -engine hash-incremental -size 64MB
//	runjob -workload per-user-count -engine hadoop -ssd
//	runjob -workload sessionization -engine hash-hotkey -trace run.json
//	runjob -workload per-user-count -engine resident -delta 0.01
//	runjob -workload sessionization -engine hadoop -cpuprofile cpu.pprof
//	runjob -workload per-user-count -engine hash-incremental -exectrace exec.trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"onepass"
	"onepass/internal/hostprof"
	"onepass/internal/metrics"
	"onepass/internal/textfmt"
	"onepass/internal/workloads"
)

func main() {
	log.SetFlags(0)
	workload := flag.String("workload", "sessionization",
		strings.Join(workloads.Names(), " | "))
	engineName := flag.String("engine", "hadoop",
		strings.Join(onepass.EngineNames(), " | "))
	size := flag.String("size", "32MB", "input size (e.g. 64MB, 1GB)")
	nodes := flag.Int("nodes", 10, "cluster nodes")
	reducers := flag.Int("reducers", 20, "reduce tasks")
	blockSize := flag.String("block", "1MB", "DFS block size")
	ssd := flag.Bool("ssd", false, "put intermediate data on a per-node SSD")
	split := flag.Bool("split", false, "split storage/compute nodes")
	memory := flag.String("taskmem", "", "per-task memory budget (default: node memory / 4)")
	streamSecs := flag.Float64("stream", 0, "stream the input in over this many virtual seconds (0 = preloaded)")
	progress := flag.Bool("progress", false, "print task-completion progress")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto or chrome://tracing)")
	jsonOut := flag.Bool("json", false, "print the full engine result as JSON instead of the text report")
	gantt := flag.Bool("gantt", false, "render the trace as a plain-text Gantt chart (implies tracing)")
	profileFlag := flag.Bool("profile", false,
		"print the post-run profile: makespan attribution, critical path, span statistics (implies tracing)")
	profileJSON := flag.String("profile-json", "", "write the run profile as JSON to this file (implies tracing)")
	faultSpec := flag.String("fault", "",
		"fault schedule: comma-separated kind@T[+W]:nN[xF], kinds fail|disk-slow|net-slow|straggler (e.g. 'fail@30s:n3,disk-slow@10s+20s:n1x8')")
	faultSeed := flag.Int64("fault-seed", 0, "derive a chaos fault schedule from this seed (ignored when -fault is set)")
	parallel := flag.Int("parallel-intra", onepass.DefaultConfig().Parallelism,
		"worker goroutines for intra-run data work (default GOMAXPROCS; 0 or 1 = serial; results are byte-identical either way)")
	deltaFrac := flag.Float64("delta", 0,
		"evolve this fraction of the input (seeded updates+deletes+appends) and compare the incremental re-run against a full re-run (click workloads only)")
	deltaSeed := flag.Uint64("delta-seed", 42, "delta derivation seed (with -delta)")
	cpuProfile := flag.String("cpuprofile", "",
		"write a host CPU profile of the job run to this file (go tool pprof); with -delta, of RunDelta alone, not the full re-run it is compared against")
	memProfile := flag.String("memprofile", "",
		"write a host allocation profile, taken after the job run, to this file; with -delta, taken when RunDelta returns")
	execTrace := flag.String("exectrace", "",
		"write a Go execution trace of the job run to this file (go tool trace); with -delta, of RunDelta alone, like -cpuprofile")
	flag.Parse()

	cfg := onepass.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.Reducers = *reducers
	cfg.SSDIntermediate = *ssd
	cfg.SplitStorageCompute = *split
	cfg.DiscardOutput = true
	cfg.Parallelism = *parallel
	poolWidth := max(cfg.Parallelism, 1) // 0 and 1 both mean inline

	var err error
	if cfg.BlockSize, err = textfmt.ParseSize(*blockSize); err != nil {
		log.Fatalf("bad -block: %v", err)
	}
	inputSize, err := textfmt.ParseSize(*size)
	if err != nil {
		log.Fatalf("bad -size: %v", err)
	}
	if *memory != "" {
		if cfg.MemoryPerTask, err = textfmt.ParseSize(*memory); err != nil {
			log.Fatalf("bad -taskmem: %v", err)
		}
	}

	var tl *onepass.TraceLog
	if *tracePath != "" || *gantt || *profileFlag || *profileJSON != "" {
		tl = onepass.NewTraceLog()
		cfg.Trace = tl
	}

	if cfg.Engine, err = onepass.ParseEngine(*engineName); err != nil {
		log.Fatalf("bad -engine: %v", err)
	}

	cc := onepass.DefaultClickConfig()
	w, err := workloads.ByName(*workload, cc, onepass.DefaultDocConfig())
	if err != nil {
		log.Fatalf("bad -workload: %v", err)
	}

	data := onepass.Dataset{Path: "input/" + w.Name, Size: inputSize, Gen: w.Gen}
	if *streamSecs > 0 {
		data.ArrivalRate = float64(inputSize) / *streamSecs
	}

	if *deltaFrac != 0 {
		if *deltaFrac < 0 || *deltaFrac > 1 {
			log.Fatalf("bad -delta: %v: must be in (0,1]", *deltaFrac)
		}
		if *streamSecs > 0 {
			log.Fatal("-delta cannot be combined with -stream: deltas evolve a stored input")
		}
		if *faultSpec != "" || *faultSeed != 0 {
			log.Fatal("-delta cannot be combined with -fault or -fault-seed")
		}
		if !w.Clicks {
			log.Fatalf("-delta requires a click workload, not %q", *workload)
		}
		runDeltaCompare(cfg, data, w.Job, onepass.DefaultDelta(cc, *deltaSeed, *deltaFrac),
			hostprof.Start(*cpuProfile, *memProfile, *execTrace))
		return
	}
	job := w.Job
	if *progress {
		job.Progress = func(phase string, done, total int) {
			if done == total || done%25 == 0 {
				fmt.Fprintf(os.Stderr, "  %s %d/%d\n", phase, done, total)
			}
		}
	}
	if *faultSpec != "" {
		if cfg.Faults, err = onepass.ParseFaults(*faultSpec); err != nil {
			log.Fatalf("bad -fault: %v", err)
		}
	} else if *faultSeed != 0 {
		// Derive the chaos horizon from a fault-free run of the same job, so
		// every fault lands while the job is actually running. It is not
		// traced: the trace and profile describe the faulted run alone.
		probe := cfg
		probe.Trace = nil
		base, err := onepass.Run(probe, data, job)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = onepass.ChaosFaults(*faultSeed, *nodes, base.Makespan)
		fmt.Fprintf(os.Stderr, "chaos schedule (seed %d): %s\n", *faultSeed, cfg.Faults.String())
	}
	stopMeter := startHostMeter()
	stopProfiles := hostprof.Start(*cpuProfile, *memProfile, *execTrace)
	res, err := onepass.Run(cfg, data, job)
	stopProfiles()
	host := stopMeter()
	if err != nil {
		log.Fatal(err)
	}
	var prof *onepass.RunProfile
	if tl != nil {
		// Counter tracks (utilization, in-flight work) render in Perfetto
		// alongside the spans; attach before the Chrome export.
		onepass.AttachCounterTracks(tl, res)
		if prof, err = onepass.ComputeProfile(tl, res); err != nil {
			log.Fatalf("profile: %v", err)
		}
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tl.WriteChrome(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", tl.Len(), *tracePath)
	}
	if *profileJSON != "" {
		b, err := prof.MarshalIndentJSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*profileJSON, b, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote profile to %s\n", *profileJSON)
	}

	if *jsonOut {
		// The deterministic Result lives under "result"; the real-time pool
		// and host-memory stats (wall-clock and GC-paced, hence
		// nondeterministic) live under "diagnostics" so determinism checks
		// can select one key.
		out := struct {
			Result      *onepass.Result `json:"result"`
			Diagnostics diagnostics     `json:"diagnostics"`
		}{res, diagnostics{Pool: poolStats{
			Workers:     poolWidth,
			Dispatched:  res.Pool.Dispatched,
			MaxInFlight: res.Pool.MaxInFlight,
			BusyMS:      float64(res.Pool.Busy) / float64(time.Millisecond),
		}, hostStats: host}}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		if *profileFlag {
			fmt.Fprint(os.Stderr, prof.Report())
		}
		if *gantt {
			fmt.Fprint(os.Stderr, tl.Gantt(72))
			fmt.Fprint(os.Stderr, prof.NodeUtilReport())
		}
		return
	}

	fmt.Println(res.Summary())
	fmt.Println()
	fmt.Println("Task timeline:")
	fmt.Print(res.RenderTimeline(72))
	fmt.Println()
	fmt.Printf("cpu-util   |%s| mean=%.2f\n", res.CPUUtil.Downsample(res.CPUUtil.Len()/72+1).Spark(), res.CPUUtil.Mean())
	fmt.Printf("cpu-iowait |%s| mean=%.2f\n", res.Iowait.Downsample(res.Iowait.Len()/72+1).Spark(), res.Iowait.Mean())
	fmt.Println()
	fmt.Println("CPU by phase:")
	for _, ph := range res.CPU.Phases() {
		fmt.Printf("  %-14s %8.2f s (%4.1f%%)\n", ph, res.CPU.Seconds(ph), 100*res.CPU.Share(ph))
	}
	fmt.Println()
	fmt.Println("Counters:")
	for _, name := range res.Counters.Names() {
		fmt.Printf("  %-28s %.0f\n", name, res.Counters.Get(name))
	}
	fmt.Println()
	// Aggregate closure time over the wall clock of a serial run is the Amdahl
	// numerator for what the pool can overlap.
	fmt.Printf("Pool: %d workers, %d closures dispatched, peak %d in flight, %s aggregate closure time\n",
		poolWidth, res.Pool.Dispatched, res.Pool.MaxInFlight, res.Pool.Busy.Round(time.Millisecond))
	if len(res.Snapshots) > 0 {
		fmt.Println()
		fmt.Printf("Early answers: %d snapshots, first at %v\n", len(res.Snapshots), res.Snapshots[0].At)
	}
	if len(res.Progress) > 0 {
		fmt.Println()
		fmt.Println("Progress vs accuracy (map fraction -> output coverage):")
		for _, pp := range res.Progress {
			cov := 0.0
			if res.OutputPairs > 0 {
				cov = float64(pp.Pairs) / float64(res.OutputPairs)
			}
			fmt.Printf("  t=%-12v map=%5.1f%%  pairs=%-9d coverage=%5.1f%%  spilled=%d\n",
				pp.At, 100*pp.MapFraction, pp.Pairs, 100*cov, pp.SpilledBytes)
		}
	}
	if *profileFlag {
		fmt.Println()
		fmt.Print(prof.Report())
	}
	if *gantt {
		fmt.Println()
		fmt.Println("Trace Gantt:")
		fmt.Print(tl.Gantt(72))
		fmt.Print(prof.NodeUtilReport())
	}
}

// runDeltaCompare runs the -delta comparison: the incremental path (prime
// on the base, re-run over changed blocks plus preserved state) against a
// full re-run over the evolved dataset on a fresh cluster. The report is
// deterministic — same flags, same bytes — and the process exits non-zero
// if the outputs diverge, so CI can gate on it directly. stopProfiles runs
// as soon as RunDelta returns: the host profiles cover the delta path, not
// the full re-run it is checked against.
func runDeltaCompare(cfg onepass.Config, data onepass.Dataset, job onepass.Job, d onepass.Delta, stopProfiles func()) {
	cfg.DiscardOutput = false
	dr, err := onepass.RunDelta(cfg, data, job, d)
	stopProfiles()
	if err != nil {
		log.Fatal(err)
	}
	cl := onepass.NewCluster(cfg)
	v2 := onepass.DeltaDataset(data, d, cfg.BlockSize)
	if err := cl.Register(v2); err != nil {
		log.Fatal(err)
	}
	job.InputPath = v2.Path
	job.RetainOutput = true
	full, err := cl.RunJob(job)
	if err != nil {
		log.Fatal(err)
	}
	fullDisk := cl.DiskBytesRead()

	st := dr.Stats
	fmt.Printf("Incremental vs full re-run: %s, delta %.3g (seed %d)\n", job.Name, d.DirtyFrac, d.Seed)
	fmt.Printf("  base:        %d blocks, phase %.2fs (merge %.2fs), %s disk read (priming)\n",
		st.BaseBlocks, st.BaseSpan.Seconds(), dr.Base.Makespan.Seconds(), metrics.FormatBytes(st.BaseDiskReadBytes))
	fmt.Printf("  delta:       %d dirty + %d appended blocks\n", st.DirtyBlocks, st.AppendedBlocks)
	fmt.Printf("  incremental: phase %.2fs (merge %.2fs), %s disk read, %d/%d keys re-folded, state %s\n",
		st.IncrementalSpan.Seconds(), dr.Incremental.Makespan.Seconds(), metrics.FormatBytes(st.IncrementalDiskReadBytes),
		st.AffectedKeys, st.TotalKeys, metrics.FormatBytes(float64(st.StateBytes)))
	fmt.Printf("  full re-run: makespan %.2fs, %s disk read\n",
		full.Makespan.Seconds(), metrics.FormatBytes(fullDisk))

	if dr.Incremental.OutputChecksum != full.OutputChecksum || !sameOutput(dr.Incremental.Output, full.Output) {
		fmt.Printf("  verdict: OUTPUT DIVERGED (incremental %016x, full %016x)\n",
			dr.Incremental.OutputChecksum, full.OutputChecksum)
		os.Exit(1)
	}
	fmt.Printf("  verdict: byte-identical output (checksum %016x, %d keys)\n",
		full.OutputChecksum, len(full.Output))
	// The phase span covers what the disk bytes do — capture, state publish
	// and merge — so the two verdicts compare like with like.
	if st.IncrementalSpan < full.Makespan {
		fmt.Printf("  verdict: incremental phase faster than the full re-run (%.3fs < %.3fs)\n",
			st.IncrementalSpan.Seconds(), full.Makespan.Seconds())
	} else {
		fmt.Printf("  verdict: incremental phase no faster than the full re-run (%.3fs >= %.3fs)\n",
			st.IncrementalSpan.Seconds(), full.Makespan.Seconds())
	}
	if st.IncrementalDiskReadBytes < fullDisk {
		fmt.Printf("  verdict: incremental read strictly fewer disk bytes (%s < %s)\n",
			metrics.FormatBytes(st.IncrementalDiskReadBytes), metrics.FormatBytes(fullDisk))
	} else {
		fmt.Printf("  verdict: incremental read no fewer disk bytes (%s >= %s; preserved state rivals the input at this scale)\n",
			metrics.FormatBytes(st.IncrementalDiskReadBytes), metrics.FormatBytes(fullDisk))
	}
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
