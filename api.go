package onepass

import (
	"fmt"
	"runtime"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/engines"
	"onepass/internal/faults"
	"onepass/internal/gen"
	"onepass/internal/kv"
	"onepass/internal/metrics"
	"onepass/internal/profile"
	"onepass/internal/sim"
	"onepass/internal/trace"
	"onepass/internal/workloads"
)

// Engine selects the MapReduce runtime.
type Engine int

// Available engines.
const (
	// Hadoop is the stock sort-merge baseline.
	Hadoop Engine = iota
	// MapReduceOnline is the pipelining HOP baseline.
	MapReduceOnline
	// HashHybrid is the hash engine with blocking Hybrid Hash grouping.
	HashHybrid
	// HashIncremental is the hash engine with incremental per-key states.
	HashIncremental
	// HashHotKey adds the frequent-items sketch for hot-key pinning.
	HashHotKey
	// Resident is the M3R-style in-memory engine: push-only shuffle into
	// resident fold tables, reduce output published as memory-resident DFS
	// files so chained jobs iterate without disk I/O.
	Resident
)

// The engine set itself lives in internal/engines: an Engine is an index
// into engines.List, and String, Engines, EngineNames and ParseEngine all
// read that list, so the constants above are the only thing to extend here
// when it grows.

// String implements fmt.Stringer.
func (e Engine) String() string {
	if e < 0 || int(e) >= len(engines.List) {
		return fmt.Sprintf("engine(%d)", int(e))
	}
	return engines.List[e].Name
}

// Engines lists every engine, for sweeps.
func Engines() []Engine {
	out := make([]Engine, len(engines.List))
	for i := range out {
		out[i] = Engine(i)
	}
	return out
}

// EngineNames lists every engine's String name, in registry order — the
// canonical spelling for CLI flags and usage text.
func EngineNames() []string { return engines.Names() }

// ParseEngine resolves an engine by its String name or a registered alias
// ("hop" is the historical spelling of mapreduce-online).
func ParseEngine(name string) (Engine, error) {
	i, err := engines.Find(name)
	if err != nil {
		return 0, fmt.Errorf("onepass: %w", err)
	}
	return Engine(i), nil
}

// Re-exported job-building types: jobs and results are shared across all
// engines.
type (
	// Job is a MapReduce job specification.
	Job = engine.Job
	// Result is a completed run's output, metrics, and counters.
	Result = engine.Result
	// CostModel converts measured work into virtual CPU time.
	CostModel = engine.CostModel
	// Emit collects output pairs from user functions.
	Emit = engine.Emit
	// Monoid is the declarative aggregation contract (an associative,
	// commutative combine over map values, optionally a Final): jobs that
	// declare one gain in-node combining on every engine, one-element
	// per-key state on the hash and resident engines, and one-element
	// preserved partials under RunDelta.
	Monoid = kv.Monoid
	// Workload couples a job template with an input generator.
	Workload = workloads.Workload
	// ClickConfig parameterizes the synthetic click log.
	ClickConfig = gen.ClickConfig
	// DocConfig parameterizes the synthetic document collection.
	DocConfig = gen.DocConfig
	// Snapshot is one early answer (HOP snapshots, hot-key early emits).
	Snapshot = engine.Snapshot
	// ProgressPoint is one sample of the progress-vs-accuracy series.
	ProgressPoint = engine.ProgressPoint
	// NodeSeries is one node's sampled CPU/iowait/disk series.
	NodeSeries = engine.NodeSeries
	// TraceSink receives structured trace events during a run.
	TraceSink = trace.Sink
	// TraceLog is the in-memory trace sink with Chrome-trace and Gantt
	// renderers.
	TraceLog = trace.Log
	// Fault is one scheduled injection (node failure, disk slowdown, NIC
	// degradation, or straggler).
	Fault = faults.Fault
	// FaultSchedule is a deterministic set of faults to inject into a run.
	FaultSchedule = faults.Schedule
	// Duration is virtual simulated time (fault offsets, makespans).
	Duration = sim.Duration
)

// Fault kinds, re-exported for building schedules programmatically.
const (
	NodeFailure = faults.NodeFailure
	DiskSlow    = faults.DiskSlow
	NetDegrade  = faults.NetDegrade
	Straggler   = faults.Straggler
)

// ParseFaults parses a comma-separated fault schedule in the CLI grammar
// kind@T[+W]:nN[xF], e.g. "fail@30s:n3,disk-slow@10s+20s:n1x8".
func ParseFaults(s string) (FaultSchedule, error) { return faults.Parse(s) }

// ChaosFaults derives a pseudo-random but fully seed-determined schedule:
// one node failure plus a few degradations within the first 2/3 of horizon.
func ChaosFaults(seed int64, nodes int, horizon sim.Duration) FaultSchedule {
	return faults.Chaos(seed, nodes, horizon)
}

// NewTraceLog returns an empty in-memory trace log to pass as Config.Trace.
func NewTraceLog() *TraceLog { return trace.NewLog() }

// Profiling re-exports: the post-run analyzer and the mergeable histogram
// underneath it.
type (
	// RunProfile is the deterministic post-run analysis: critical path,
	// exact makespan attribution, per-phase skew, shuffle balance, and
	// per-node utilization.
	RunProfile = profile.RunProfile
	// Histogram is the mergeable log-bucketed latency histogram (exact
	// count/sum/min/max, deterministic quantiles, associative Merge).
	Histogram = metrics.Histogram
)

// ComputeProfile analyzes a completed traced run. The run must have been
// traced into log (Config.Trace) — the profiler reconstructs the span DAG
// from it — and fails loudly on span defects or attribution that does not
// tile the makespan.
func ComputeProfile(log *TraceLog, res *Result) (*RunProfile, error) {
	return profile.Compute(log, res)
}

// AttachCounterTracks attaches the standard Perfetto counter tracks to a
// traced run's log before export: the sampled cluster utilization and
// byte-flow series plus in-flight map/reduce task counts.
func AttachCounterTracks(log *TraceLog, res *Result) {
	profile.AttachCounterTracks(log, res)
}

// Workload constructors (the paper's Table I tasks).
var (
	// Sessionization reorders click logs into per-user sessions.
	Sessionization = workloads.Sessionization
	// PageFrequency counts visits per URL.
	PageFrequency = workloads.PageFrequency
	// PerUserCount counts clicks per user.
	PerUserCount = workloads.PerUserCount
	// WindowedSessionization buckets clicks into fixed event-time windows
	// before sessionizing ("u<user>@<window>") — the sliding-window
	// scenario whose trailing windows are all a delta's appended blocks
	// touch, so incremental re-runs serve closed windows from preserved
	// state. A zero window means workloads.DefaultSessionWindow.
	WindowedSessionization = workloads.WindowedSessionization
	// InvertedIndex builds word -> postings over documents.
	InvertedIndex = workloads.InvertedIndex
	// DefaultClickConfig mirrors the World Cup '98 log's skew.
	DefaultClickConfig = gen.DefaultClickConfig
	// DefaultDocConfig mirrors GOV2's statistics.
	DefaultDocConfig = gen.DefaultDocConfig
)

// Config describes the simulated testbed and engine knobs.
type Config struct {
	// Engine picks the runtime.
	Engine Engine

	// Nodes and CoresPerNode describe the cluster (the paper: 10 nodes);
	// every node has cluster.NodeMemory, the paper's 1 GB.
	Nodes        int
	CoresPerNode int
	// SSDIntermediate gives each node an SSD for intermediate data
	// (§III.C first experiment).
	SSDIntermediate bool
	// SplitStorageCompute dedicates half the nodes to storage (§III.C
	// second experiment).
	SplitStorageCompute bool

	// BlockSize is the DFS block / map task granularity.
	BlockSize int64
	// Reducers is the number of reduce tasks (0 = 2 per compute node).
	Reducers int
	// MemoryPerTask caps per-task buffers (0 = a quarter of node memory).
	MemoryPerTask int64

	// FanIn is the sort-merge multi-pass factor F.
	FanIn int
	// SpillBuckets / HotKeyCounters / ApproximateEarly tune the hash
	// engine; ChunkBytes is the push granularity of HOP, the hash engines
	// and resident.
	SpillBuckets     int
	HotKeyCounters   int
	ApproximateEarly bool
	ChunkBytes       int64
	// RetainOutput decodes the job's part files into Result.Output;
	// DiscardOutput never encodes payloads, and their I/O is charged from
	// their sizes (sink mode for large benchmark runs). A job that ends up
	// with both is rejected.
	//
	// Precedence: job-level settings win. A Job that sets its own
	// MemoryPerTask keeps it, and a Job that sets RetainOutput or
	// DiscardOutput keeps both; the Config values apply only when the job
	// leaves the corresponding fields zero. Run and Cluster.RunJob share
	// these semantics.
	RetainOutput  bool
	DiscardOutput bool

	// Trace, when non-nil, receives every structured event the run emits
	// (task spans, spills, shuffle transfers, early answers, ...). Leaving
	// it nil keeps the run on the zero-cost path and its results
	// byte-identical to untraced ones.
	Trace TraceSink

	// Faults is the deterministic fault schedule to inject during the run.
	// All engines honor it; the same schedule and input yield byte-identical
	// grouped output with and without faults.
	Faults FaultSchedule

	// Parallelism is the number of worker goroutines that execute tasks'
	// pure data work (map parse/sort/hash folds, merge passes, combine
	// flushes, reduce scans) concurrently with the event loop. 0 or 1 keeps
	// every closure inline on the simulation thread; DefaultConfig sets it
	// to the host's GOMAXPROCS. Any value yields byte-identical results,
	// traces, and counters — the pool only moves real work off the
	// virtual-time path, never reorders virtual effects.
	Parallelism int

	// Audit arms the runtime invariant audits: end-of-run conservation
	// checks (map output vs shuffle delivery net of combine savings, spill
	// bytes written vs read back, task launch/completion accounting),
	// simulation leak checks (resources held, disk queues, stranded scratch
	// files, live processes), and trace span closure. A violated invariant
	// makes Run/RunJob return an error with node/task attribution alongside
	// the completed Result. The disarmed path costs nothing and audited runs
	// stay byte-identical to unaudited ones.
	Audit bool
}

// DefaultConfig mirrors the paper's testbed at simulation scale and runs it
// on all of the host: Parallelism is GOMAXPROCS, so a one-core host resolves
// to the inline path. Set Parallelism to 1 to force a serial run; the
// results are the same bytes either way.
func DefaultConfig() Config {
	return Config{
		Engine:       Hadoop,
		Nodes:        10,
		CoresPerNode: 4,
		BlockSize:    dfs.DefaultBlockSize,
		Parallelism:  runtime.GOMAXPROCS(0),
	}
}

func (c Config) clusterConfig() cluster.Config {
	cc := cluster.DefaultConfig()
	if c.Nodes > 0 {
		cc.Nodes = c.Nodes
	}
	if c.CoresPerNode > 0 {
		cc.CoresPerNode = c.CoresPerNode
	}
	cc.SSDIntermediate = c.SSDIntermediate
	cc.SplitStorage = c.SplitStorageCompute
	return cc
}

// Dataset names an input registered in the simulated DFS.
type Dataset struct {
	Path string
	Size int64
	// Gen produces block contents deterministically.
	Gen func(block int, size int64) []byte
	// ArrivalRate, when positive, streams the data into the system at this
	// many bytes per virtual second instead of preloading it; map tasks
	// start on each block as it arrives (the paper's one-pass setting).
	ArrivalRate float64
}

// Run executes job over data on a fresh simulated cluster per cfg.
// RunDelta is the incremental re-run over an evolved dataset.
func Run(cfg Config, data Dataset, job Job) (*Result, error) {
	// A one-job cluster: RunJob defaults, traces, audits and faults the job
	// exactly as it does every stage of a chain.
	c := NewCluster(cfg)
	if err := c.Register(data); err != nil {
		return nil, err
	}
	job.InputPath = data.Path
	if job.OutputPath == "" {
		job.OutputPath = "out/" + job.Name
	}
	return c.RunJob(job)
}

// applyJobDefaults fills job fields from the config without clobbering
// job-level settings — job-level wins, as documented on Config. Run and
// Cluster.RunJob both default through here so precedence cannot drift.
func (c Config) applyJobDefaults(job *Job, computeNodes int) {
	if job.Reducers <= 0 {
		if c.Reducers > 0 {
			job.Reducers = c.Reducers
		} else {
			job.Reducers = 2 * computeNodes
		}
	}
	if c.MemoryPerTask > 0 && job.MemoryPerTask == 0 {
		job.MemoryPerTask = c.MemoryPerTask
	}
	if !job.RetainOutput && !job.DiscardOutput {
		job.RetainOutput = c.RetainOutput
		job.DiscardOutput = c.DiscardOutput
	}
}

// dispatch finalizes the runtime from the config — trace sink, audit
// ledger, fault-schedule validation — and routes the job to the selected
// engine. Run and Cluster.RunJob both funnel through here, so every Config
// knob is threaded identically no matter how a job is launched.
func dispatch(cfg Config, rt *engine.Runtime, job Job) (*Result, error) {
	rt.Tracer = cfg.Trace
	if cfg.Audit {
		rt.Audit = engine.NewAudit()
	}
	if err := cfg.Faults.Validate(len(rt.Cluster.Nodes()), rt.Cluster.ComputeIDs()); err != nil {
		return nil, fmt.Errorf("onepass: %w", err)
	}
	if cfg.Engine < 0 || int(cfg.Engine) >= len(engines.List) {
		return nil, fmt.Errorf("onepass: unknown engine %v", cfg.Engine)
	}
	// One Options for every engine: each reads the knobs that apply to it.
	res, err := engine.Run(rt, job, engine.Options{
		FanIn:            cfg.FanIn,
		ChunkBytes:       cfg.ChunkBytes,
		SpillBuckets:     cfg.SpillBuckets,
		HotKeyCounters:   cfg.HotKeyCounters,
		ApproximateEarly: cfg.ApproximateEarly,
		Faults:           cfg.Faults,
	}, engines.List[cfg.Engine].Plan)
	if err != nil {
		return nil, err
	}
	// An audit failure surfaces as an error but keeps the Result attached so
	// callers can inspect what the run produced anyway.
	return res, res.AuditError()
}

// RunWorkload runs one of the built-in workloads over inputSize bytes of
// its generated dataset.
func RunWorkload(cfg Config, w *Workload, inputSize int64) (*Result, error) {
	return Run(cfg, Dataset{Path: "input/" + w.Name, Size: inputSize, Gen: w.Gen}, w.Job)
}
