// Command bench is the repo's host-clock benchmark: four fixed workloads run
// uncached through the public entry points (onepass.Run, onepass.RunDelta,
// service.New + loadgen.Drive), every output verified, eight end-to-end
// metrics from untraced timed passes and the per-layer metrics from a
// separate traced run. See README.md beside this file.
//
//	go run ./bench                         every workload, timed then traced
//	go run ./bench -workload hash-aggregate -trace 1
//	go run ./bench -compare a.json b.json  gate b against a
//	go run ./bench -quick                  smoke: tiny inputs, one pass
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"onepass"
)

// setupRepeats is how many times a timed run sets the workload up; setup_s
// is the median.
const setupRepeats = 3

// result is what one workload run (one process) produces. Its JSON is the
// per-run results file; the last line of standard output carries only the
// driver's four keys.
type result struct {
	Workload   string  `json:"workload"`
	Trace      int     `json:"trace"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	// Metrics holds the reported value of every metric of this run.
	Metrics map[string]float64 `json:"metrics"`
	// Stats holds median/min/max/n and the raw per-pass samples behind each
	// end-to-end metric.
	Stats  map[string]stat `json:"stats,omitempty"`
	Passes []sample        `json:"passes,omitempty"`
	// Spans is the traced run's span list; SpanTotalS and SpanSelfS sum it
	// by name (self = duration minus what the span's children cover).
	Spans      []span             `json:"spans,omitempty"`
	SpanTotalS map[string]float64 `json:"span_total_s,omitempty"`
	SpanSelfS  map[string]float64 `json:"span_self_s,omitempty"`
}

func main() {
	var (
		workload   = flag.String("workload", "", "run this one workload in this process (default: all four, one child process each)")
		seed       = flag.Uint64("seed", 1998, "seed of every generated input, the delta and the Poisson arrivals")
		seconds    = flag.Float64("seconds", runSeconds, "how long one run measures")
		traceMode  = flag.Int("trace", 0, "0: untraced timed passes, end-to-end metrics; 1: traced passes and probes, per-layer metrics")
		quick      = flag.Bool("quick", false, "smoke run: few-hundred-KB inputs, one pass")
		compare    = flag.Bool("compare", false, "compare two results files (args: a.json b.json); exit 1 if b is worse than a beyond a bound")
		resultsDir = flag.String("results", "bench/results", "directory for results files and the saved CPU profile")
		emitSpec   = flag.Bool("manifest", false, "print BENCHMARK.json as derived from the metric and workload tables")
	)
	flag.Parse()

	switch {
	case *emitSpec:
		b, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		def, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		opts := runOptions{seed: *seed, seconds: *seconds, trace: *traceMode == 1, quick: *quick, resultsDir: *resultsDir}
		res, err := runWorkload(os.Stdout, def, opts)
		if err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runAll(*seed, *seconds, *quick, *resultsDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

type runOptions struct {
	seed       uint64
	seconds    float64
	trace      bool
	quick      bool
	resultsDir string
}

// runWorkload runs one workload in this process — timed or traced — prints
// every metric by name, writes the results file, and ends standard output
// with the driver's JSON line.
func runWorkload(w io.Writer, def workloadDef, o runOptions) (*result, error) {
	res := &result{
		Workload: def.name, Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Metrics: map[string]float64{},
	}
	sz := fullSizes
	if o.quick {
		sz = quickSizes
	}
	var err error
	var defs []metricDef
	if o.trace {
		res.Trace = 1
		defs = perLayer
		err = tracedRun(res, def, sz, o)
	} else {
		defs = endToEnd
		err = timedRun(res, def, sz, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	fmt.Fprintf(w, "workload %s seed %d trace %d: ops %d, ops_failed %d\n",
		def.name, o.seed, res.Trace, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  failed: %s\n", e)
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-42s %16.6g %-7s %s", d.Name, res.Metrics[d.Name], d.Unit, d.Clock)
		if st, ok := res.Stats[d.Name]; ok {
			line += fmt.Sprintf("  n=%d min=%.6g max=%.6g", st.N, st.Min, st.Max)
		}
		fmt.Fprintln(w, line)
	}

	if err := writeJSON(filepath.Join(o.resultsDir, fmt.Sprintf("%s.trace%d.json", def.name, res.Trace)), res); err != nil {
		return nil, err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", b)
	return res, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// timedRun is the end-to-end protocol: set the workload up setupRepeats
// times (input generation, reference, verify pass — the last one's state is
// kept), then run untraced passes for o.seconds, at least three, and report
// the median of each measurement.
func timedRun(res *result, def workloadDef, sz sizes, o runOptions) error {
	mt := newMeter()
	defer mt.close()
	var inst instance
	var setups, rawSetups []float64
	repeats := setupRepeats
	if o.quick {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		inst = nil
		runtime.GC()
		var err error
		raw, _, scale := mt.cal.scaled(func() { inst, err = def.setup(o.seed, sz, nil) })
		if err != nil {
			return err
		}
		setups, rawSetups = append(setups, raw*scale), append(rawSetups, raw)
	}

	minPasses := 3
	if o.quick {
		minPasses = 1
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(res.Passes) < minPasses || (!o.quick && time.Now().Before(deadline)) {
		s, pr := mt.timedPass(func() passResult { return inst.pass(nil, nil) })
		res.Passes = append(res.Passes, s)
		res.count(pr)
	}

	cols := map[string][]float64{}
	for _, s := range res.Passes {
		records := float64(s.Records)
		for name, v := range map[string]float64{
			"wall_s":                 s.WallS,
			"records_per_s":          records / s.WallS,
			"cpu_s":                  s.CPUS,
			"allocs_per_record":      s.Allocs / records,
			"alloc_bytes_per_record": s.AllocBytes / records,
			"peak_heap_mb":           s.PeakHeapMB,
			"virtual_makespan_s":     s.VirtualS,
		} {
			cols[name] = append(cols[name], v)
		}
	}
	res.Stats = map[string]stat{"setup_s": summarize(setups)}
	for name, samples := range cols {
		res.Stats[name] = summarize(samples)
	}
	for name, st := range res.Stats {
		res.Metrics[name] = st.Median
	}
	// The collector's phase spreads a pass's high-water mark almost evenly
	// between the live heap and twice it, and of values spread like that the
	// mean repeats better than the median.
	res.Metrics["peak_heap_mb"] = mean(res.Stats["peak_heap_mb"].Samples)
	// Not a metric: what the clock read before scaling to the reference host
	// speed. The passes carry theirs (raw_wall_s, raw_cpu_s, calib_s).
	res.Stats["raw_setup_s"] = summarize(rawSetups)
	return nil
}

// count adds a pass's operations and failures to the run's totals.
func (res *result) count(pr passResult) {
	res.Attempted += pr.ops
	res.Failed += pr.failed
	res.Errors = append(res.Errors, pr.errs...)
}

// tracedRun produces the per-layer metrics from outside the program: spans
// around each call into a layer, the closure/framework split from
// Result.Pool.Busy, a CPU profile folded by package, the cost of the trace
// sink, and the layer probes. The budget o.seconds is split between them.
func tracedRun(res *result, def workloadDef, sz sizes, o runOptions) error {
	rec := newRecorder(def.name)
	end := rec.start("setup")
	inst, err := def.setup(o.seed, sz, rec)
	end()
	if err != nil {
		return err
	}
	budget := func(share float64) time.Duration { return time.Duration(o.seconds * share * float64(time.Second)) }
	mt := newMeter()
	defer mt.close()

	// Traced passes under the CPU profiler.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var passes []passResult
	var tracedWalls, scales []float64
	deadline := time.Now().Add(budget(0.4))
	for len(passes) == 0 || (!o.quick && time.Now().Before(deadline)) {
		runtime.GC()
		var pr passResult
		raw, _, scale := mt.cal.scaled(func() {
			defer rec.start("pass")()
			pr = inst.pass(rec, nil)
		})
		pr.scale = scale
		tracedWalls, scales = append(tracedWalls, raw*scale), append(scales, scale)
		passes = append(passes, pr)
		res.count(pr)
	}
	pprof.StopCPUProfile()
	if err := os.MkdirAll(o.resultsDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.resultsDir, def.name+".cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return err
	}
	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}

	// Untraced baseline for the two overhead ratios, taken after the traced
	// passes so both run on a warm heap.
	var baseWalls []float64
	for i := 0; i < 3 && (i == 0 || !o.quick); i++ {
		s, _ := mt.timedPass(func() passResult { return inst.pass(nil, nil) })
		baseWalls = append(baseWalls, s.WallS)
	}
	baseWall := median(baseWalls)

	m := res.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for k, v := range foldShares(stacks) {
		m[k] = v
	}
	layerMetrics(m, passes)
	m["bench.trace_overhead_ratio"] = median(tracedWalls) / baseWall
	m["bench.host_speed_ratio"] = median(scales)

	// The same jobs once more with a trace sink attached.
	if inst.sinkable() {
		var logs []*onepass.TraceLog
		end := rec.start("pass.trace_sink")
		s, pr := mt.timedPass(func() passResult {
			return inst.pass(nil, func() *onepass.TraceLog {
				logs = append(logs, onepass.NewTraceLog())
				return logs[len(logs)-1]
			})
		})
		end()
		res.count(pr)
		m["trace.sink_overhead_ratio"] = s.WallS / baseWall
		for _, log := range logs {
			m["trace.events"] += float64(log.Len())
			n, err := chromeBytes(log)
			if err != nil {
				return err
			}
			m["trace.chrome_bytes"] += float64(n)
		}
	}

	probeBudget := budget(0.3)
	if o.quick {
		probeBudget = 50 * time.Millisecond
	}
	probed, err := runProbes(o.seed, probeBudget, rec)
	if err != nil {
		return err
	}
	for k, v := range probed {
		m[k] = v
	}
	res.Spans, res.SpanTotalS, res.SpanSelfS = rec.spans, totals(rec.spans), selfTimes(rec.spans)
	return nil
}

// layerMetrics turns the traced passes' job-call seconds, Pool.Busy and
// counters into per-layer metrics: means per pass, host seconds scaled to
// the reference host speed, so they line up with wall_s.
func layerMetrics(m map[string]float64, passes []passResult) {
	n := float64(len(passes))
	sum := map[string]float64{}
	var jobWall, closure float64
	for _, p := range passes {
		jobWall += p.jobWallS * p.scale
		closure += p.closureS * p.scale
		for k, v := range p.spanS {
			sum[k] += v * p.scale
		}
		for k, v := range p.layer {
			sum[k] += v
		}
		for k, v := range p.counters {
			sum["counter:"+k] += v
		}
	}
	for _, name := range []string{"hadoop.job_s", "hop.job_s", "core.job_s", "resident.job_s",
		"onepass.rundelta_s", "service.jobs", "service.rejected",
		"service.queue_wait_p95_virtual_s", "service.latency_p95_virtual_s", "incr.state_bytes"} {
		m[name] = sum[name] / n
	}
	if jobs := sum["service.jobs"]; jobs > 0 {
		m["service.run_s"] = jobWall / n
		m["service.host_ms_per_job"] = jobWall * 1000 / jobs
	}
	m["engine.closure_s"] = closure / n
	m["engine.framework_s"] = (jobWall - closure) / n
	m["engine.framework_share"] = (jobWall - closure) / jobWall
	for metric, counter := range map[string]string{
		"engine.map_input_records":    "map.input.records",
		"engine.map_output_bytes":     "map.output.bytes",
		"engine.shuffle_bytes":        "shuffle.bytes",
		"sortmerge.sort_comparisons":  "sort.comparisons",
		"sortmerge.merge_comparisons": "merge.comparisons",
		"memtable.hash_ops":           "hash.ops",
	} {
		m[metric] = sum["counter:"+counter] / n
	}
	if total := sum["incr.total_keys"]; total > 0 {
		m["incr.affected_key_ratio"] = sum["incr.affected_keys"] / total
	}
	if base := sum["dfs.base_read_bytes"]; base > 0 {
		m["dfs.incremental_read_ratio"] = sum["dfs.incremental_read_bytes"] / base
	}
}

// allResults is bench/results/latest.json: every workload's timed and traced
// run of one invocation, diffable with -compare.
type allResults struct {
	Seed       uint64             `json:"seed"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	Workloads  map[string]*runSet `json:"workloads"`
}

type runSet struct {
	Timed  *result `json:"timed"`
	Traced *result `json:"traced"`
}

// runAll runs every workload in a child process of its own — timed, then
// traced — so one workload's heap never paces another's collector, and
// gathers the children's results files into latest.json.
func runAll(seed uint64, seconds float64, quick bool, resultsDir string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	all := allResults{
		Seed: seed, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workloads: map[string]*runSet{},
	}
	ok := true
	for _, def := range workloadDefs {
		set := &runSet{}
		all.Workloads[def.name] = set
		for trace, dst := range []**result{&set.Timed, &set.Traced} {
			args := []string{"-workload", def.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-results", resultsDir}
			if quick {
				args = append(args, "-quick")
			}
			// Remove the last invocation's file so a child that dies early
			// cannot be mistaken for one that reported.
			file := filepath.Join(resultsDir, fmt.Sprintf("%s.trace%d.json", def.name, trace))
			if err := os.Remove(file); err != nil && !os.IsNotExist(err) {
				return false, err
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				if _, exited := err.(*exec.ExitError); !exited {
					return false, err
				}
				ok = false // the child printed why
			}
			b, err := os.ReadFile(file)
			if err != nil {
				return false, err
			}
			*dst = new(result)
			if err := json.Unmarshal(b, *dst); err != nil {
				return false, err
			}
			ok = ok && (*dst).Correct
		}
	}
	return ok, writeJSON(filepath.Join(resultsDir, "latest.json"), all)
}
