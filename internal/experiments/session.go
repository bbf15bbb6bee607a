package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/engines"
	"onepass/internal/faults"
	"onepass/internal/profile"
	"onepass/internal/sim"
	"onepass/internal/trace"
	"onepass/internal/workloads"
)

// runSpec fully determines one experiment run (and is its key in the
// session's run cache).
type runSpec struct {
	Workload string
	// Engine is a name or alias from internal/engines ("hadoop",
	// "mapreduce-online", ...); the alias "hop" is the spelling baked into
	// existing specs and artifact names.
	Engine  string
	InputGB float64
	// Topology deltas.
	SSD   bool `json:",omitempty"`
	Split bool `json:",omitempty"`
	// Engine knobs (zero = default).
	FanIn         int   `json:",omitempty"`
	ChunkBytes    int64 `json:",omitempty"`
	MemoryPerTask int64 `json:",omitempty"`
	HotCounters   int   `json:",omitempty"`
	Snapshots     bool  `json:",omitempty"`
	BinaryInput   bool  `json:",omitempty"`
	// Threshold, when positive, attaches the §IV threshold query: emit a
	// key the moment its count reaches this value (hash engines only).
	Threshold uint64 `json:",omitempty"`
	// StreamPerMinute, when positive, streams the input into the system at
	// this fraction of the dataset per virtual minute instead of preloading
	// it.
	StreamPerMinute float64 `json:",omitempty"`
	// Faults, when non-empty, is a fault schedule in the faults.Parse
	// grammar, injected into the run on any engine. Like every other field
	// it is part of the run's key.
	Faults string `json:",omitempty"`
}

// runEntry is one cache slot. The goroutine that inserts the entry runs the
// simulation and closes done; concurrent requesters of the same spec block
// on done instead of duplicating the run (singleflight).
type runEntry struct {
	done  chan struct{}
	res   *engine.Result // nil after done only if the producing run panicked
	cause any            // what it panicked with
}

// Session caches experiment runs so Figs 2(a)–(d) share one sessionization
// execution, exactly as the paper plots one run four ways. It is safe for
// concurrent use: the parallel driver calls Run from many goroutines, each
// run executing on a private sim.Env/cluster/DFS.
type Session struct {
	Scale Scale
	// Log, if set, receives progress lines. It may be called from multiple
	// goroutines; Session serializes the calls.
	Log func(format string, args ...interface{})
	// TraceDir, when non-empty, attaches a trace sink to every run this
	// session actually executes (cache misses) and writes each as a Chrome
	// trace-event file under the directory, named by workload, engine, and
	// a hash of the full spec. Tracing is observational: results are
	// byte-identical with or without it.
	TraceDir string
	// ProfileDir, when non-empty, traces every executed run and writes its
	// RunProfile (critical path, makespan attribution, span statistics) as
	// a JSON artifact under the directory, named like TraceDir's files. A
	// run whose trace fails profiling (broken span DAG, attribution that
	// does not tile the makespan) panics the sweep: experiment numbers
	// built on a malformed run would be silently wrong.
	ProfileDir string
	// Audit arms the runtime invariant audits on every executed run. A
	// violated invariant panics the run (experiment results built on a run
	// that broke conservation would be silently wrong). Like tracing, the
	// audits are observational: results are byte-identical either way.
	Audit bool
	// Parallelism sets the intra-run worker pool width on every executed
	// run (sim.Env.SetWorkers). 0 or 1 keeps task data work inline; any
	// width yields byte-identical results.
	Parallelism int

	mu      sync.Mutex
	results map[runSpec]*runEntry
	// runWall accumulates real wall-clock spent executing (non-cached)
	// runs.
	runWall time.Duration
	runs    int // number of runs actually executed (cache misses)
	// pool accumulates every executed run's intra-run worker pool stats
	// (closures dispatched, aggregate closure time, peak in flight).
	pool sim.WorkStats

	logMu sync.Mutex
}

// NewSession returns a session at the given scale.
func NewSession(s Scale) *Session {
	return &Session{Scale: s, results: make(map[runSpec]*runEntry)}
}

func (s *Session) logf(format string, args ...interface{}) {
	if s.Log == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.Log(format, args...)
}

// RunStats reports how many simulations this session actually executed and
// the wall-clock they consumed in aggregate (the serial-equivalent cost).
func (s *Session) RunStats() (runs int, wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs, s.runWall
}

// PoolStats reports the intra-run worker pool activity accumulated across
// every executed run: the aggregate-closure-time share of RunStats' wall is
// the Amdahl numerator for -parallel-intra overlap on a multi-core host.
func (s *Session) PoolStats() sim.WorkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool
}

func (s *Session) workload(name string, binary bool) *workloads.Workload {
	cc := s.Scale.clickCfg()
	cc.Binary = binary
	w, err := workloads.ByName(name, cc, s.Scale.docCfg())
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return w
}

// Run executes (or returns the cached result of) one spec. Concurrent calls
// with the same spec share a single execution.
func (s *Session) Run(spec runSpec) *engine.Result {
	s.mu.Lock()
	if e, ok := s.results[spec]; ok {
		s.mu.Unlock()
		<-e.done
		if e.res == nil {
			panic(fmt.Sprintf("experiments: %s/%s: awaited run failed: %v", spec.Engine, spec.Workload, e.cause))
		}
		return e.res
	}
	e := &runEntry{done: make(chan struct{})}
	s.results[spec] = e
	s.mu.Unlock()

	start := time.Now()
	// e.done must close even if execute panics, so experiments waiting on
	// this spec wake up (and fail with the same cause) instead of hanging.
	defer func() {
		if e.res == nil {
			e.cause = recover()
		}
		close(e.done)
		if e.res == nil {
			panic(e.cause)
		}
	}()
	res := s.execute(spec)
	e.res = res

	s.mu.Lock()
	s.runWall += time.Since(start)
	s.runs++
	s.pool.Add(res.Pool)
	s.mu.Unlock()
	return res
}

// execute performs one simulation on a private environment. Everything the
// run touches — sim clock, cluster, DFS, metrics — is created here, so runs
// are independent and their results depend only on the spec and scale.
func (s *Session) execute(spec runSpec) *engine.Result {
	w := s.workload(spec.Workload, spec.BinaryInput)

	env := sim.New()
	env.SetWorkers(s.Parallelism)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = s.Scale.Nodes
	ccfg.SSDIntermediate = spec.SSD
	ccfg.SplitStorage = spec.Split
	cl := cluster.New(env, ccfg)
	d := dfs.New(cl, s.Scale.BlockSize, 1)
	inputSize := s.Scale.Bytes(spec.InputGB)
	rate := 0.0
	if spec.StreamPerMinute > 0 {
		rate = float64(inputSize) * spec.StreamPerMinute / 60
	}
	if err := d.RegisterStream("input/"+w.Name, inputSize, rate, w.Gen); err != nil {
		panic(err)
	}
	rt := engine.NewRuntimeSampled(env, cl, d, s.sampleInterval())
	var tl *trace.Log
	if s.TraceDir != "" || s.ProfileDir != "" {
		tl = trace.NewLog()
		rt.Tracer = tl
	}
	if s.Audit {
		rt.Audit = engine.NewAudit()
	}

	job := w.Job
	job.InputPath = "input/" + w.Name
	job.OutputPath = "out/" + w.Name
	job.Reducers = s.Scale.Reducers
	job.DiscardOutput = true
	job.BinaryInput = spec.BinaryInput
	job.MemoryPerTask = s.Scale.TaskMemory()
	if spec.MemoryPerTask > 0 {
		job.MemoryPerTask = spec.MemoryPerTask
	}
	if spec.Threshold > 0 {
		th := spec.Threshold
		job.EmitWhen = func(key, state []byte) bool {
			return workloads.CountState(state) >= th
		}
	}

	eng, err := engines.Find(spec.Engine)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s: %v", spec.Engine, spec.Workload, err))
	}
	// One Options for every engine, as in onepass.Run: each reads the knobs
	// that apply to it.
	opts := engine.Options{
		FanIn: spec.FanIn, SegmentLimit: s.segmentLimit(inputSize), ChunkBytes: spec.ChunkBytes,
		HotKeyCounters: spec.HotCounters, DisableSnapshots: !spec.Snapshots,
	}
	if spec.Faults != "" {
		if opts.Faults, err = faults.Parse(spec.Faults); err != nil {
			panic(fmt.Sprintf("experiments: %s/%s: %v", spec.Engine, spec.Workload, err))
		}
	}

	s.logf("running %s on %s (%s input)...", w.Name, spec.Engine, fmtBytes(float64(inputSize)))
	res, err := engine.Run(rt, job, opts, engines.List[eng].Plan)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s: %v", spec.Engine, spec.Workload, err))
	}
	if aerr := res.AuditError(); aerr != nil {
		panic(fmt.Sprintf("experiments: %s/%s: %v", spec.Engine, spec.Workload, aerr))
	}
	if tl != nil {
		if s.ProfileDir != "" {
			if perr := s.writeProfile(spec, tl, res); perr != nil {
				panic(fmt.Sprintf("experiments: %s/%s: profile: %v", spec.Engine, spec.Workload, perr))
			}
		}
		if s.TraceDir != "" {
			if terr := s.writeTrace(spec, tl); terr != nil {
				s.logf("  trace write failed: %v", terr)
			}
		}
	}
	s.logf("  done: makespan=%v cpu=%.1fs", res.Makespan, res.CPU.Total())
	return res
}

// artifactName builds a per-run artifact file name: workload, engine, and a
// hash of the JSON spec so distinct parameterizations of the same
// workload/engine pair never collide.
func artifactName(spec runSpec, suffix string) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	h := fnv.New32a()
	h.Write(b)
	return fmt.Sprintf("%s-%s-%08x.%s", spec.Workload, spec.Engine, h.Sum32(), suffix), nil
}

// writeTrace persists one executed run's trace under TraceDir.
func (s *Session) writeTrace(spec runSpec, tl *trace.Log) error {
	name, err := artifactName(spec, "trace.json")
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(s.TraceDir, name))
	if err != nil {
		return err
	}
	if err := tl.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeProfile analyzes one executed run's trace and persists the RunProfile
// JSON under ProfileDir. Analysis errors propagate: they mean the run's span
// DAG or attribution is broken, not that the artifact is optional.
func (s *Session) writeProfile(spec runSpec, tl *trace.Log, res *engine.Result) error {
	rp, err := profile.Compute(tl, res)
	if err != nil {
		return err
	}
	b, err := rp.MarshalIndentJSON()
	if err != nil {
		return err
	}
	name, err := artifactName(spec, "profile.json")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(s.ProfileDir, name), b, 0o644)
}

// segmentLimit scales Hadoop's in-memory merge threshold (1000 segments at
// the paper's 3773-map scale) to our map-task count, so the "spill even
// with ample memory" behaviour of §III.B.4 reproduces.
func (s *Session) segmentLimit(inputSize int64) int {
	maps := int(inputSize / s.Scale.BlockSize)
	limit := 1000 * maps / 3773
	if limit < 4 {
		limit = 4
	}
	return limit
}

func (s *Session) sampleInterval() sim.Duration {
	if s.Scale.SampleInterval > 0 {
		return s.Scale.SampleInterval
	}
	return engine.SampleInterval
}

// hadoopSessionization is the shared run behind Figs 2(a)–(d), Table II,
// and several §V comparisons.
func (s *Session) hadoopSessionization() *engine.Result {
	return s.Run(runSpec{Workload: "sessionization", Engine: "hadoop", InputGB: 256})
}

// mapFnCPU sums the map-side per-record CPU phases the paper's Table II
// calls "Map function" (parsing + the function body + partitioning +
// map-side combining).
func mapFnCPU(res *engine.Result) float64 {
	return res.CPU.Seconds(engine.PhaseParse) + res.CPU.Seconds(engine.PhaseMapFn) +
		res.CPU.Seconds(engine.PhaseHash) + res.CPU.Seconds(engine.PhaseCombine)
}
