package engine

import (
	"fmt"
	"strconv"
	"sync"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/kv"
	"onepass/internal/metrics"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// Runtime bundles the simulated substrate a job runs on plus the metric
// collectors every engine feeds: the virtual iostat/ps of the paper's
// profiling harness.
type Runtime struct {
	Env      *sim.Env
	Cluster  *cluster.Cluster
	DFS      *dfs.DFS
	Timeline *metrics.Timeline
	Counters *metrics.Counters

	// Tracer, when non-nil, receives every structured trace event; nil (the
	// default) keeps tracing free of cost — emission sites guard with
	// Tracing(). EngineLabel stamps events with the engine that owns the run.
	Tracer      trace.Sink
	EngineLabel string

	// Audit, when non-nil, arms the end-of-run invariant checks; nil (the
	// default) keeps the ledger free of cost — emission sites guard with
	// Auditing(), mirroring the Tracer nil path.
	Audit *Audit

	sampler *metrics.Sampler
	// start and cpuBase make results job-relative when several jobs chain
	// on one shared cluster/virtual clock.
	start   sim.Time
	cpuBase *metrics.CPUAccount

	// jobDone fires once when the engine declares the job complete; pending
	// fault injectors wait on it so a fault scheduled past job completion
	// cancels instead of extending virtual time.
	jobDone  *sim.Trigger
	finished bool

	// MapBuffers recycles map-output buffers from one map task to the next
	// (see AcquireBuffer). NewRuntime gives the runtime a list of its own; a
	// service running many jobs on one cluster points each job's runtime at
	// one shared list before Start.
	MapBuffers *MapBuffers

	// workerJobs[w] is pool worker w's clone of the job (see StartJobWork).
	// The slice is made on the event loop; slot w is worker w's alone.
	workerJobs []workerJob

	CPUUtil      *metrics.Series
	Iowait       *metrics.Series
	BytesRead    *metrics.Series
	BytesWritten *metrics.Series
	NetBytes     *metrics.Series
	// PerNode holds one sampled series set per node — the paper's per-node
	// CPU/iowait/disk plots next to the cluster aggregates above.
	PerNode []NodeSeries
}

// NodeSeries is one node's sampled series set.
type NodeSeries struct {
	Node         int             `json:"node"`
	CPUUtil      *metrics.Series `json:"cpuUtil"`
	Iowait       *metrics.Series `json:"iowait"`
	BytesRead    *metrics.Series `json:"bytesRead"`
	BytesWritten *metrics.Series `json:"bytesWritten"`
}

// Tracing reports whether a trace sink is attached; emission sites use it to
// skip argument construction entirely on the nil-sink fast path.
func (rt *Runtime) Tracing() bool { return rt.Tracer != nil }

// Auditing reports whether the invariant ledger is armed; emission sites use
// it to skip all bookkeeping on the nil fast path.
func (rt *Runtime) Auditing() bool { return rt.Audit != nil }

// Emit records one trace event at the current virtual instant, stamped with
// the runtime's engine label. No-op without a sink, but callers on hot paths
// should guard with Tracing() to avoid building args.
func (rt *Runtime) Emit(typ trace.Type, name string, node, task, attempt int, args ...trace.Arg) {
	if rt.Tracer == nil {
		return
	}
	rt.Tracer.Emit(trace.Event{
		At: rt.Env.Now(), Type: typ, Name: name, Engine: rt.EngineLabel,
		Node: node, Task: task, Attempt: attempt, Args: args,
	})
}

// Begin opens a span at the current instant: it records s, which names the
// span and attributes it, in the Timeline and, with a sink attached, emits
// the span's start event. Close it with End. Begin and End are the only
// places a span is opened or closed, so the Timeline and the trace hold the
// same spans.
func (rt *Runtime) Begin(s metrics.Span) *metrics.Span {
	s.Start = rt.Env.Now()
	sp := rt.Timeline.Begin(s)
	rt.emitSpan(sp, trace.TaskStart, trace.PhaseStart)
	return sp
}

// End closes sp at the current instant and emits its end event.
func (rt *Runtime) End(sp *metrics.Span) {
	sp.End(rt.Env.Now())
	rt.emitSpan(sp, trace.TaskFinish, trace.PhaseEnd)
}

func (rt *Runtime) emitSpan(sp *metrics.Span, task, phase trace.Type) {
	typ := task
	if sp.Phase {
		typ = phase
	}
	rt.Emit(typ, sp.Name, sp.Node, sp.Task, sp.Attempt)
}

// SampleInterval is the metrics bucket width: 1 virtual second, like the
// paper's profiler.
const SampleInterval = sim.Second

// NewRuntime wires a runtime over the given substrate and registers the
// standard probes at the default 1 s sample interval.
func NewRuntime(env *sim.Env, c *cluster.Cluster, d *dfs.DFS) *Runtime {
	return NewRuntimeSampled(env, c, d, SampleInterval)
}

// NewRuntimeSampled is NewRuntime with an explicit metrics bucket width,
// for small-scale runs whose phases are shorter than a virtual second.
func NewRuntimeSampled(env *sim.Env, c *cluster.Cluster, d *dfs.DFS, sample sim.Duration) *Runtime {
	rt := &Runtime{
		Env:      env,
		Cluster:  c,
		DFS:      d,
		Timeline: metrics.NewTimeline(),
		Counters: metrics.NewCounters(),
		start:    env.Now(),
		cpuBase:  c.CPUAccount(),

		MapBuffers: NewMapBuffers(),
	}
	rt.jobDone = env.NewTrigger("job-done")
	rt.sampler = metrics.NewSampler(env, sample)
	rt.trackSeries(c, sample.Seconds())
	return rt
}

// The quantities a runtime samples, by their index as a metrics.Source's:
// each node's four, and for the cluster those four summed plus the
// network's bytes.
const (
	cpuBusy = iota
	iowait
	bytesRead
	bytesWritten
	netBytes
)

// seriesKinds names and measures each quantity's series, in index order.
var seriesKinds = [...]struct{ name, unit string }{
	cpuBusy:      {"cpu-util", "fraction"},
	iowait:       {"cpu-iowait", "fraction"},
	bytesRead:    {"disk-bytes-read", "bytes"},
	bytesWritten: {"disk-bytes-written", "bytes"},
	netBytes:     {"net-bytes", "bytes"},
}

// clusterProbes and nodeProbes are the cluster and a node as the sampler's
// sources of the quantities above.
type (
	clusterProbes cluster.Cluster
	nodeProbes    cluster.Node
)

func (cp *clusterProbes) Cumulative(i int) float64 {
	c := (*cluster.Cluster)(cp)
	switch i {
	case cpuBusy:
		return c.CPUBusyIntegral()
	case iowait:
		return c.IowaitIntegral()
	case bytesRead:
		return c.DiskBytesRead()
	case bytesWritten:
		return c.DiskBytesWritten()
	default:
		return c.Net.BytesTransferred()
	}
}

func (np *nodeProbes) Cumulative(i int) float64 {
	n := (*cluster.Node)(np)
	switch i {
	case cpuBusy:
		return n.CPUBusyIntegral()
	case iowait:
		return n.IowaitIntegral()
	case bytesRead:
		return n.DiskBytesRead()
	default:
		return n.DiskBytesWritten()
	}
}

// nodeNames[id] is node id's series names ("cpu-util-n3", …), built once
// per ID and shared by every runtime.
var nodeNames struct {
	sync.Mutex
	byID [][netBytes]string
}

func nodeSeriesNames(id int) [netBytes]string {
	nodeNames.Lock()
	defer nodeNames.Unlock()
	for len(nodeNames.byID) <= id {
		var names [netBytes]string
		suffix := "-n" + strconv.Itoa(len(nodeNames.byID))
		for k := range names {
			names[k] = seriesKinds[k].name + suffix
		}
		nodeNames.byID = append(nodeNames.byID, names)
	}
	return nodeNames.byID[id]
}

// trackSeries registers the runtime's sampled series: the cluster's five
// and each node's four, their values in one slice and the node sets in
// another. A CPU series is busy core-seconds per interval over the cores
// that ran them, so it reads as a utilization in [0,1].
func (rt *Runtime) trackSeries(c *cluster.Cluster, interval float64) {
	nodes := c.Nodes()
	series := make([]metrics.Series, netBytes+1+netBytes*len(nodes))
	rt.sampler.Grow(len(series))
	track := func(src metrics.Source, i int, name string, cores float64) *metrics.Series {
		s := &series[0]
		series = series[1:]
		scale := 1.0
		if i == cpuBusy || i == iowait {
			scale = 1 / (cores * interval)
		}
		rt.sampler.Track(s, name, seriesKinds[i].unit, src, i, scale)
		return s
	}
	cp, cores := (*clusterProbes)(c), float64(c.TotalCores())
	rt.CPUUtil = track(cp, cpuBusy, seriesKinds[cpuBusy].name, cores)
	rt.Iowait = track(cp, iowait, seriesKinds[iowait].name, cores)
	rt.BytesRead = track(cp, bytesRead, seriesKinds[bytesRead].name, cores)
	rt.BytesWritten = track(cp, bytesWritten, seriesKinds[bytesWritten].name, cores)
	rt.NetBytes = track(cp, netBytes, seriesKinds[netBytes].name, cores)
	rt.PerNode = make([]NodeSeries, len(nodes))
	for k, n := range nodes {
		np, cores, names := (*nodeProbes)(n), float64(n.Cores()), nodeSeriesNames(n.ID)
		rt.PerNode[k] = NodeSeries{
			Node:         n.ID,
			CPUUtil:      track(np, cpuBusy, names[cpuBusy], cores),
			Iowait:       track(np, iowait, names[iowait], cores),
			BytesRead:    track(np, bytesRead, names[bytesRead], cores),
			BytesWritten: track(np, bytesWritten, names[bytesWritten], cores),
		}
	}
}

// StartJobWork dispatches fn — pure data work that calls job's user
// functions — and returns the handle to join before reading its results.
// Scratch belongs to the executing thread: fn must reach the user functions
// (and the job's Fold) only through wj, which on the pool is the executing
// worker's own Fresh() clone of job and inline is job itself.
//
// A worker builds its clone at its first closure and keeps it for the run —
// its Fold resolved once, on the clone — so at most Env.Workers() clones
// exist, however many tasks there are. Code on the event loop (a snapshot
// merge, a Finish at emit time) calls through job, which no pooled closure
// touches. A job without Fresh makes no such promise about its functions, so
// its closures run inline.
func (rt *Runtime) StartJobWork(p *sim.Proc, job *Job, fn func(wj *Job)) *sim.Work {
	if job.Fresh == nil {
		return sim.Do(func() { fn(job) })
	}
	return rt.startWorkOn(p, func(worker int) { fn(rt.jobOn(worker, job)) })
}

// startWorkOn dispatches fn, a closure of a job with Fresh, once the
// workers' clones can be handed out: fn finds its job with jobOn.
func (rt *Runtime) startWorkOn(p *sim.Proc, fn func(worker int)) *sim.Work {
	if rt.workerJobs == nil && rt.Env.Workers() > 1 {
		rt.workerJobs = make([]workerJob, rt.Env.Workers())
	}
	return p.StartWorkOn(fn)
}

// jobOn returns the job a closure executing on worker calls through: the
// worker's clone of job on the pool, job itself inline.
func (rt *Runtime) jobOn(worker int, job *Job) *Job {
	if rt.workerJobs == nil {
		return job
	}
	return rt.workerJobs[worker].clone(job)
}

// workerJob is one pool worker's clone of a job. Only that worker touches it.
type workerJob struct{ of, wj *Job }

func (w *workerJob) clone(job *Job) *Job {
	if w.of == job {
		return w.wj
	}
	fresh := job.Fresh()
	wj := *job
	wj.Reader, wj.Map, wj.Reduce = fresh.Reader, fresh.Map, fresh.Reduce
	// The monoid tracks the job's current declaration, not Fresh's: a runner
	// that stripped it (the checker's monoid-off axis, a combiner-off A/B
	// run) must see it stay stripped on every clone.
	if job.Monoid != nil {
		wj.Monoid = fresh.Monoid
	}
	wj.fold = wj.Fold()
	w.of, w.wj = job, &wj
	return &wj
}

// AcquireBuffer returns an empty map-output buffer, recycled from the
// runtime's MapBuffers when one is available (capBytes only sizes a fresh
// one). The list is unlocked: acquire and release on the event loop only —
// a pooled closure may fill and sort a buffer it was handed, never fetch or
// return one.
func (rt *Runtime) AcquireBuffer(capBytes int) *kv.Buffer {
	return rt.MapBuffers.acquire(capBytes)
}

// ReleaseBuffer hands b back: to the free list while unstarted map tasks
// outnumber it, to the collector otherwise. The caller must be done with
// every slice aliasing it (Key, Val): the next map task overwrites them.
// Encoded chunks and map-output files are copies, so releasing after the
// buffer has been encoded is safe. A nil b is ignored.
func (rt *Runtime) ReleaseBuffer(b *kv.Buffer) {
	rt.MapBuffers.release(b)
}

// InputBlocks resolves a job's input on d: a registered file's blocks, or —
// for chained jobs reading a previous job's output directory — the blocks
// of every part file under the path.
func InputBlocks(d *dfs.DFS, path string) ([]*dfs.Block, error) {
	if blocks, err := d.Blocks(path); err == nil {
		return blocks, nil
	}
	return d.BlocksUnder(path)
}

// JobDone marks the job complete, releasing every process parked on the
// completion trigger — in particular pending fault injectors, which would
// otherwise keep the event heap alive and stretch the measured makespan.
// Engines call it once, after their last barrier drains.
func (rt *Runtime) JobDone() {
	rt.finished = true
	rt.jobDone.Broadcast()
}

// waitDoneOr blocks p until the job completes or d elapses, reporting true
// when the job finished first.
func (rt *Runtime) waitDoneOr(p *sim.Proc, d sim.Duration) bool {
	if rt.finished {
		return true
	}
	return rt.jobDone.WaitTimeout(p, d)
}

// WaitGroup is a virtual-time completion barrier.
type WaitGroup struct {
	n    int
	trig *sim.Trigger
}

// NewWaitGroup returns a barrier expecting n completions.
func (rt *Runtime) NewWaitGroup(name string, n int) *WaitGroup {
	return &WaitGroup{n: n, trig: rt.Env.NewTrigger(name)}
}

// Done marks one completion.
func (w *WaitGroup) Done() {
	w.n--
	if w.n < 0 {
		panic("engine: WaitGroup over-done")
	}
	if w.n == 0 {
		w.trig.Broadcast()
	}
}

// Wait blocks p until the count drains.
func (w *WaitGroup) Wait(p *sim.Proc) {
	for w.n > 0 {
		w.trig.Wait(p)
	}
}

// Pending returns the remaining count.
func (w *WaitGroup) Pending() int { return w.n }

// Result is everything a job run reports: the paper's tables come from the
// counters and CPU account, the figures from the series and timeline. Its
// JSON form is what `runjob -json` prints and the behaviour fingerprint
// digests; it is printed, never decoded back.
type Result struct {
	Job    string `json:"job"`
	Engine string `json:"engine"`

	Makespan sim.Duration `json:"makespan"`

	// Output holds the job's output pairs when Job.RetainOutput is set,
	// decoded from its part files (or resident sinks) once the job is done.
	Output      map[string]string `json:"output,omitempty"`
	OutputPairs int               `json:"outputPairs"`
	OutputBytes int64             `json:"outputBytes"`
	// OutputChecksum is an order-independent digest of every output pair
	// (sum of per-pair FNV hashes), so runs that discard output payloads can
	// still be compared for semantic equality — the chaos sweep's proof that
	// recovery reproduced the fault-free answer.
	OutputChecksum uint64 `json:"outputChecksum"`

	// FirstOutputAt is when the first output pair was produced — the
	// incremental-processing latency metric. It is meaningful only when
	// OutputPairs > 0.
	FirstOutputAt sim.Time   `json:"firstOutputAt"`
	Snapshots     []Snapshot `json:"snapshots,omitempty"`

	// Progress is the progress-vs-accuracy series for engines that answer
	// early (hash-hotkey, threshold queries): one point per emission batch
	// relating map progress to output coverage and spill volume.
	Progress []ProgressPoint `json:"progress,omitempty"`

	CPU      *metrics.CPUAccount `json:"cpu"`
	Counters *metrics.Counters   `json:"counters"`

	CPUUtil      *metrics.Series   `json:"cpuUtil"`
	Iowait       *metrics.Series   `json:"iowait"`
	BytesRead    *metrics.Series   `json:"bytesRead"`
	BytesWritten *metrics.Series   `json:"bytesWritten"`
	NetBytes     *metrics.Series   `json:"netBytes"`
	PerNode      []NodeSeries      `json:"perNode,omitempty"`
	Timeline     *metrics.Timeline `json:"timeline"`

	// AuditFailures holds the invariants an armed audit found violated
	// (empty or nil after a clean audited run; always nil when the run was
	// not audited). Omitted from JSON when empty so audited and unaudited
	// runs print identically.
	AuditFailures []AuditFailure `json:"AuditFailures,omitempty"`

	// Pool reports the intra-run worker pool's real-time activity: closures
	// dispatched via StartWork, aggregate wall time inside them, and the
	// peak in flight. Real-time observability only — excluded from JSON so
	// serial and pooled runs serialize byte-identically.
	Pool sim.WorkStats `json:"-"`
}

// AuditError returns a non-nil error summarizing the violated invariants,
// or nil when the run passed (or was not audited).
func (r *Result) AuditError() error {
	if len(r.AuditFailures) == 0 {
		return nil
	}
	return fmt.Errorf("engine: %d audit failure(s):\n%s",
		len(r.AuditFailures), FormatAuditFailures(r.AuditFailures))
}

// ProgressPoint is one sample of the one-pass "early answers" story: how far
// the map phase had progressed when output pairs were emitted, and how much
// intermediate data had been spilled by then. Coverage at a point is
// Pairs / the run's final OutputPairs.
type ProgressPoint struct {
	At sim.Time `json:"at"`
	// MapFraction is completed map tasks over total, in [0,1] (-1 when the
	// emitting engine has no map-progress view).
	MapFraction float64 `json:"mapFraction"`
	// Pairs is the cumulative output pairs emitted up to and including this
	// point.
	Pairs int `json:"pairs"`
	// SpilledBytes is cumulative intermediate data forced to disk so far.
	SpilledBytes int64 `json:"spilledBytes"`
}

// Shared counter names.
const (
	CtrMapInputBytes    = "map.input.bytes"
	CtrMapInputRecords  = "map.input.records"
	CtrMapOutputBytes   = "map.output.bytes"
	CtrMapOutputRecords = "map.output.records"
	CtrShuffleBytes     = "shuffle.bytes"
	CtrReduceSpillBytes = "reduce.spill.bytes"
	CtrMapSpillBytes    = "map.spill.bytes"
	CtrSortComparisons  = "sort.comparisons"
	CtrMergeComparisons = "merge.comparisons"
	CtrHashOps          = "hash.ops"
	CtrMergePasses      = "merge.passes"
	CtrOutputBytes      = "output.bytes"
	CtrMapTasks         = "map.tasks"
	CtrReduceTasks      = "reduce.tasks"
	// CtrMapOutputWriteSeconds accumulates virtual seconds map tasks spent
	// blocked in the synchronous map-output write (§III.B.2).
	CtrMapOutputWriteSeconds = "map.output.write.seconds"
	// CtrMapWrittenBytes is post-combine map output actually persisted —
	// Table I's "Map output data" column (CtrMapOutputBytes counts raw
	// emissions before combining).
	CtrMapWrittenBytes = "map.output.written.bytes"
	// CtrTasksReexecuted counts map tasks re-run after their output was
	// lost to a node failure.
	CtrTasksReexecuted = "tasks.reexecuted"
	// CtrFaultsInjected counts faults the injector actually fired (faults
	// scheduled past job completion are canceled, not injected).
	CtrFaultsInjected = "faults.injected"
	// CtrShuffleRetries counts pull fetches abandoned mid-transfer because
	// the source died, then retried after backoff.
	CtrShuffleRetries = "shuffle.retries"
)

// CtrTimelineForceClosed counts spans an engine left open at FinishResult
// time; non-zero means a Begin without a matching End (clamped to the
// horizon rather than left reporting Finish == 0), and profile.Compute
// refuses the run.
const CtrTimelineForceClosed = "timeline.spans.forceclosed"

// FinishResult snapshots runtime state into a Result after Env.Run has
// drained.
func (rt *Runtime) FinishResult(res *Result) {
	if rt.Audit != nil {
		// Check span closure before CloseOpenAt clamps the leaks away.
		if err := rt.Timeline.CheckClosed(); err != nil {
			rt.Audit.fail("trace-span-leak", "timeline", err.Error())
		}
	}
	if n := rt.Timeline.CloseOpenAt(rt.Env.Now()); n > 0 {
		rt.Counters.Add(CtrTimelineForceClosed, float64(n))
	}
	res.Makespan = rt.Env.Now().Sub(rt.start)
	res.CPU = rt.Cluster.CPUAccount()
	res.CPU.Sub(rt.cpuBase)
	res.Counters = rt.Counters
	res.CPUUtil = rt.CPUUtil
	res.Iowait = rt.Iowait
	res.BytesRead = rt.BytesRead
	res.BytesWritten = rt.BytesWritten
	res.NetBytes = rt.NetBytes
	res.PerNode = rt.PerNode
	res.Timeline = rt.Timeline
	res.Pool = rt.Env.WorkStats()
	if rt.Audit != nil {
		res.AuditFailures = rt.Audit.Finish(rt)
	}
}

// RenderTimeline draws the run's task timeline as per-phase sparklines at
// the metrics bucket width.
func (r *Result) RenderTimeline(width int) string {
	return r.Timeline.Render(r.CPUUtil.Bucket, sim.Time(int64(r.Makespan)), width)
}

// Summary renders the headline numbers.
func (r *Result) Summary() string {
	return fmt.Sprintf("%s/%s: makespan=%v cpu=%.1fs output=%d pairs (%s), first output at %v",
		r.Engine, r.Job, r.Makespan, r.CPU.Total(), r.OutputPairs,
		metrics.FormatBytes(float64(r.OutputBytes)), r.FirstOutputAt)
}
