package main

import (
	"encoding/json"
	"sort"
)

// metricDef is one row of the benchmark's metric table: BENCHMARK.json, the
// printed lines, the README table and -compare all derive from these rows.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Zero on per-layer metrics, which are never gated.
	Bound float64
	// Clock says where the number was read: "host clock", "virtual clock",
	// or "exact count" for counts that repeat on every run of one seed.
	Clock string
}

// endToEnd is what a user of the system sees, per workload. The driver
// accepts a bound only if the metric's spread (interquartile range over
// median) over ten runs with ten seeds stays inside it, and asks for three
// times that margin. Seen here, on any workload: host times, after scaling to
// the reference host speed, spread 2-5 % while the host is quiet and up to
// 12 % while its neighbours are busy (unscaled: 15-40 %); heap high-water
// marks 6-10 % (collector phase); allocation counts 1 %; and
// virtual_makespan_s — bit-identical on one seed — 7 % across seeds, because
// the generated data differ. Hence 25 % on everything but the allocation
// counts. A gain is claimed from paired alternating runs, not from these
// bounds; -compare holds virtual-clock metrics to sameSeedVirtualBound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host clock"},
	{"wall_s", "s", "lower", 0.25, "host clock"},
	{"records_per_s", "1/s", "higher", 0.25, "host clock"},
	{"cpu_s", "s", "lower", 0.25, "host clock"},
	{"allocs_per_record", "count", "lower", 0.05, "host clock"},
	{"alloc_bytes_per_record", "bytes", "lower", 0.05, "host clock"},
	{"peak_heap_mb", "MB", "lower", 0.25, "host clock"},
	{"virtual_makespan_s", "s", "lower", 0.25, "virtual clock"},
}

// sameSeedVirtualBound is what -compare allows a virtual-clock metric to
// move between two results files, which it requires to share a seed: the
// simulated clock repeats exactly, so only a cost-model change moves it.
const sameSeedVirtualBound = 0.001

// cpuSharePackages are the layers (package names) the CPU profile of the
// traced passes is folded onto; "onepass" is the root package, "bench" the
// harness's own frames.
var cpuSharePackages = []string{
	"gen", "dfs", "sim", "cluster", "disk", "netsim", "kv", "sortmerge",
	"memtable", "hashlib", "sketch", "engine", "hadoop", "hop", "core",
	"resident", "workloads", "textfmt", "incr", "service", "metrics",
	"trace", "onepass", "bench",
}

// perLayer lists every number the traced run prints. Each workload prints
// all of them; a layer a workload does not run reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	host := func(name, unit, better string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Clock: "host clock"}
	}
	virt := func(name, unit, better string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Clock: "virtual clock"}
	}
	count := func(name, unit, better string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Clock: "exact count"}
	}
	defs := []metricDef{
		// Spans around job calls.
		host("hadoop.job_s", "s", "lower"),
		host("hop.job_s", "s", "lower"),
		host("core.job_s", "s", "lower"),
		host("resident.job_s", "s", "lower"),
		host("onepass.rundelta_s", "s", "lower"),
		host("service.run_s", "s", "lower"),
		host("service.host_ms_per_job", "ms", "lower"),
		count("service.jobs", "count", "higher"),
		count("service.rejected", "count", "lower"),
		virt("service.queue_wait_p95_virtual_s", "s", "lower"),
		virt("service.latency_p95_virtual_s", "s", "lower"),
		// Closure/framework split and work counts.
		host("engine.closure_s", "s", "lower"),
		host("engine.framework_s", "s", "lower"),
		host("engine.framework_share", "ratio", "lower"),
		count("engine.map_input_records", "count", "lower"),
		count("engine.map_output_bytes", "bytes", "lower"),
		count("engine.shuffle_bytes", "bytes", "lower"),
		count("sortmerge.sort_comparisons", "count", "lower"),
		count("sortmerge.merge_comparisons", "count", "lower"),
		count("memtable.hash_ops", "count", "lower"),
		// Preserved-state path.
		count("incr.affected_key_ratio", "ratio", "lower"),
		count("incr.state_bytes", "bytes", "lower"),
		count("dfs.incremental_read_ratio", "ratio", "lower"),
	}
	for _, p := range cpuSharePackages {
		defs = append(defs, host(p+".cpu_share", "ratio", "lower"))
	}
	defs = append(defs,
		host("runtime.gc_share", "ratio", "lower"),
		host("runtime.sched_share", "ratio", "lower"),
		host("runtime.other_share", "ratio", "lower"),
	)
	for _, p := range probes {
		for _, o := range p.outputs {
			defs = append(defs, host(o.name, o.unit, o.better))
		}
	}
	defs = append(defs,
		count("trace.events", "count", "lower"),
		host("trace.sink_overhead_ratio", "ratio", "lower"),
		count("trace.chrome_bytes", "bytes", "lower"),
		host("bench.trace_overhead_ratio", "ratio", "lower"),
		host("bench.host_speed_ratio", "ratio", "higher"),
	)
	return defs
}

// runSeconds is how long the driver lets one run measure (BENCHMARK.json's
// run_seconds, and the default of -seconds).
const runSeconds = 12

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// stat summarises one metric's per-pass samples. Five to a dozen samples
// support no percentile above the median, so none is reported.
type stat struct {
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(samples []float64) stat {
	s := stat{N: len(samples), Samples: samples}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

func median(samples []float64) float64 { return summarize(samples).Median }

func mean(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
