package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"onepass"
	"onepass/internal/gen"
	"onepass/internal/loadgen"
	"onepass/internal/metrics"
	"onepass/internal/service"
	"onepass/internal/workloads"
)

// sizes holds every input size of the four workloads. The issue measured
// 64/48/32/16 MB inputs at 5-8 s a pass; the driver's contract gives a whole
// run (three set-ups plus the timed passes) about 20 s, so the inputs here
// are an eighth of that with the block size and task memory scaled by the
// same factor: the ratios that decide behaviour — map output per block vs
// MemoryPerTask, shuffle bytes per reducer vs MemoryPerTask, blocks per job —
// stay where the issue put them, and the workload and metric lists are whole.
type sizes struct {
	block    int64 // Config.BlockSize of the big-job and delta workloads
	taskMem  int64 // MemoryPerTask of the memory-bound jobs
	reducers int

	sortmergeClicks int64 // Sessionization on hadoop and mapreduce-online

	hashCountClicks int64 // PerUserCount on hash-incremental and resident
	hashIndexDocs   int64 // InvertedIndex on hash-hotkey, taskMem
	hashSessClicks  int64 // Sessionization on hash-hybrid, taskMem

	fleetJobBytes int64 // input of every fleet job
	fleetBlock    int64
	fleetReducers int
	fleetJobs     [3]int // jobs of tenants a, b, c

	deltaCountClicks    int64 // PerUserCount on resident
	deltaWindowedClicks int64 // WindowedSessionization on hash-incremental
	deltaSessClicks     int64 // Sessionization on hadoop
	deltaBlock          int64
}

var fullSizes = sizes{
	block: 128 << 10, taskMem: 256 << 10, reducers: 20,
	sortmergeClicks: 8 << 20,
	hashCountClicks: 8 << 20, hashIndexDocs: 6 << 20, hashSessClicks: 4 << 20,
	fleetJobBytes: 128 << 10, fleetBlock: 16 << 10, fleetReducers: 10,
	fleetJobs:        [3]int{32, 32, 16},
	deltaCountClicks: 4 << 20, deltaWindowedClicks: 2 << 20, deltaSessClicks: 2 << 20,
	deltaBlock: 32 << 10,
}

// quickSizes is the -quick smoke: few-hundred-KB inputs, one pass.
var quickSizes = sizes{
	block: 32 << 10, taskMem: 64 << 10, reducers: 4,
	sortmergeClicks: 256 << 10,
	hashCountClicks: 256 << 10, hashIndexDocs: 192 << 10, hashSessClicks: 128 << 10,
	fleetJobBytes: 32 << 10, fleetBlock: 8 << 10, fleetReducers: 4,
	fleetJobs:        [3]int{4, 4, 2},
	deltaCountClicks: 128 << 10, deltaWindowedClicks: 64 << 10, deltaSessClicks: 64 << 10,
	deltaBlock: 16 << 10,
}

// instance is one workload after set-up: inputs cached, outputs verified,
// checksums pinned.
type instance interface {
	// pass runs every job of the workload once, one call at a time (closed
	// loop). rec, when non-nil, records a span around each call into the
	// repo. newSink, when non-nil, supplies each job's Config.Trace.
	pass(rec *recorder, newSink func() *onepass.TraceLog) passResult
	// sinkable reports whether the workload's entry point takes a trace sink.
	sinkable() bool
}

type workloadDef struct {
	name, why string
	setup     func(seed uint64, sz sizes, rec *recorder) (instance, error)
}

var workloadDefs = []workloadDef{
	{"sortmerge-sessionize",
		"no combiner, intermediate data 2.5x input: kv sort, merge and sortmerge spills do the work; hash layers idle",
		setupSortMerge},
	{"hash-aggregate",
		"hash group-by on memtable, hashlib, sketch, core and resident; sort/merge layers idle, so it is the bypass for them",
		setupHashAggregate},
	{"small-job-fleet",
		"80 tiny jobs from three Poisson tenants on one shared sim.Env: start-up, scheduler, sim events and dfs reads dominate",
		setupFleet},
	{"delta-rerun",
		"RunDelta captures, publishes and reads back preserved state beside the map/shuffle path it shares with the others",
		setupDelta},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// inputCache holds generated blocks, generated once per set-up and served
// read-only to every job through Dataset.Gen / RegisterInput. The pinned
// checksums double as the proof that no engine writes into them.
type inputCache struct {
	blockSize int64
	blocks    [][]byte
}

func newInputCache(rec *recorder, span string, genBlock func(int, int64) []byte, size, blockSize int64) *inputCache {
	if size%blockSize != 0 {
		panic(fmt.Sprintf("bench: input size %d is not a multiple of block size %d", size, blockSize))
	}
	defer rec.start(span)()
	c := &inputCache{blockSize: blockSize, blocks: make([][]byte, size/blockSize)}
	for i := range c.blocks {
		c.blocks[i] = genBlock(i, blockSize)
	}
	return c
}

// dataset serves the first size bytes of the cache.
func (c *inputCache) dataset(path string, size int64) onepass.Dataset {
	return onepass.Dataset{Path: path, Size: size, Gen: c.gen}
}

func (c *inputCache) gen(b int, size int64) []byte {
	if size != c.blockSize {
		panic(fmt.Sprintf("bench: block %d requested at %d bytes, cached at %d", b, size, c.blockSize))
	}
	return c.blocks[b]
}

func (c *inputCache) prefix(size int64) [][]byte { return c.blocks[:size/c.blockSize] }

func countRecords(job *onepass.Job, blocks [][]byte) int64 {
	var n int64
	for _, b := range blocks {
		job.Reader(b, func([]byte) { n++ })
	}
	return n
}

func sameOutput(got, want map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d output pairs, reference has %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return fmt.Errorf("output for key %q differs from the reference", k)
		}
	}
	return nil
}

// baseConfig is the common configuration: DefaultConfig with the scaled
// block size, 20 reducers and payloads discarded. Parallelism, tracing,
// audit and faults stay at DefaultConfig's zero values.
func baseConfig(sz sizes, e onepass.Engine) onepass.Config {
	cfg := onepass.DefaultConfig()
	cfg.Engine = e
	cfg.BlockSize = sz.block
	cfg.Reducers = sz.reducers
	cfg.DiscardOutput = true
	return cfg
}

// spanOfEngine names the span (and per-layer metric) of a job call by the
// engine package that serves it.
func spanOfEngine(e onepass.Engine) string {
	switch e {
	case onepass.Hadoop:
		return "hadoop.job"
	case onepass.MapReduceOnline:
		return "hop.job"
	case onepass.Resident:
		return "resident.job"
	default:
		return "core.job"
	}
}

// runJob is one verified job call of a big-job or delta workload.
type runJob struct {
	label   string
	span    string
	cfg     onepass.Config
	data    onepass.Dataset
	job     onepass.Job
	delta   *onepass.Delta // non-nil: the call is RunDelta
	records int64
	// checksum is the verified OutputChecksum (RunDelta: of Incremental).
	checksum uint64
}

type jobSet struct{ jobs []*runJob }

func (s *jobSet) sinkable() bool { return true }

func (s *jobSet) pass(rec *recorder, newSink func() *onepass.TraceLog) passResult {
	out := newPassResult()
	for _, j := range s.jobs {
		cfg := j.cfg
		if newSink != nil {
			cfg.Trace = newSink()
		}
		out.ops++
		out.records += j.records
		end := rec.start(j.span)
		t0 := time.Now()
		var results []*onepass.Result
		var err error
		if j.delta != nil {
			var dr *onepass.DeltaResult
			if dr, err = onepass.RunDelta(cfg, j.data, j.job, *j.delta); err == nil {
				results = []*onepass.Result{dr.Base, dr.Incremental}
				addDeltaStats(out.layer, dr.Stats)
			}
		} else {
			var res *onepass.Result
			if res, err = onepass.Run(cfg, j.data, j.job); err == nil {
				results = []*onepass.Result{res}
			}
		}
		wall := time.Since(t0).Seconds()
		end()
		out.jobWallS += wall
		out.spanS[j.span+"_s"] += wall
		if err != nil {
			out.fail("%s: %v", j.label, err)
			continue
		}
		last := results[len(results)-1]
		if last.OutputChecksum != j.checksum {
			out.fail("%s: OutputChecksum %016x, verified %016x", j.label, last.OutputChecksum, j.checksum)
		}
		// Pool is cumulative per sim.Env, so the last result of a call
		// carries the call's whole closure time.
		out.closureS += last.Pool.Busy.Seconds()
		for _, r := range results {
			out.virtualS += r.Makespan.Seconds()
			for _, name := range r.Counters.Names() {
				out.counters[name] += r.Counters.Get(name)
			}
		}
	}
	return out
}

// addDeltaStats accumulates a RunDelta's preserved-state numbers; layerMetrics
// forms the ratios from the sums over all traced passes.
func addDeltaStats(layer map[string]float64, st onepass.DeltaStats) {
	layer["incr.affected_keys"] += float64(st.AffectedKeys)
	layer["incr.total_keys"] += float64(st.TotalKeys)
	layer["incr.state_bytes"] += float64(st.StateBytes)
	layer["dfs.base_read_bytes"] += st.BaseDiskReadBytes
	layer["dfs.incremental_read_bytes"] += st.IncrementalDiskReadBytes
}

// verifyRun runs j once with its output retained, compares the output with
// workloads.Reference over the same cached blocks, and pins the checksum.
func verifyRun(rec *recorder, j *runJob, w *workloads.Workload, blocks [][]byte) error {
	end := rec.start("workloads.reference")
	want := workloads.Reference(w, blocks)
	end()
	defer rec.start("verify." + j.span)()
	cfg := j.cfg
	cfg.RetainOutput, cfg.DiscardOutput = true, false
	res, err := onepass.Run(cfg, j.data, j.job)
	if err != nil {
		return fmt.Errorf("%s: verify run: %w", j.label, err)
	}
	if err := sameOutput(res.Output, want); err != nil {
		return fmt.Errorf("%s: %w", j.label, err)
	}
	j.checksum = res.OutputChecksum
	return nil
}

func newRunJob(sz sizes, w *workloads.Workload, e onepass.Engine, taskMem int64, cache *inputCache, size int64) *runJob {
	cfg := baseConfig(sz, e)
	cfg.MemoryPerTask = taskMem
	return &runJob{
		label:   w.Name + "@" + e.String(),
		span:    spanOfEngine(e),
		cfg:     cfg,
		data:    cache.dataset("input/"+w.Name, size),
		job:     w.Job,
		records: countRecords(&w.Job, cache.prefix(size)),
	}
}

func clickConfig(seed uint64) gen.ClickConfig {
	cc := gen.DefaultClickConfig()
	cc.Seed = seed
	return cc
}

func docConfig(seed uint64) gen.DocConfig {
	dc := gen.DefaultDocConfig()
	dc.Seed = seed + 6
	return dc
}

func setupSortMerge(seed uint64, sz sizes, rec *recorder) (instance, error) {
	cc := clickConfig(seed)
	clicks := newInputCache(rec, "gen.clicks", cc.Block, sz.sortmergeClicks, sz.block)
	set := &jobSet{}
	for _, e := range []onepass.Engine{onepass.Hadoop, onepass.MapReduceOnline} {
		w := workloads.Sessionization(cc)
		j := newRunJob(sz, w, e, sz.taskMem, clicks, sz.sortmergeClicks)
		if err := verifyRun(rec, j, w, clicks.prefix(sz.sortmergeClicks)); err != nil {
			return nil, err
		}
		set.jobs = append(set.jobs, j)
	}
	return set, nil
}

func setupHashAggregate(seed uint64, sz sizes, rec *recorder) (instance, error) {
	cc, dc := clickConfig(seed), docConfig(seed)
	clickBytes := max(sz.hashCountClicks, sz.hashSessClicks)
	clicks := newInputCache(rec, "gen.clicks", cc.Block, clickBytes, sz.block)
	docs := newInputCache(rec, "gen.docs", dc.Block, sz.hashIndexDocs, sz.block)
	type spec struct {
		w       *workloads.Workload
		e       onepass.Engine
		taskMem int64
		cache   *inputCache
		size    int64
	}
	specs := []spec{
		{workloads.PerUserCount(cc), onepass.HashIncremental, 0, clicks, sz.hashCountClicks},
		{workloads.PerUserCount(cc), onepass.Resident, 0, clicks, sz.hashCountClicks},
		{workloads.InvertedIndex(dc), onepass.HashHotKey, sz.taskMem, docs, sz.hashIndexDocs},
		{workloads.Sessionization(cc), onepass.HashHybrid, sz.taskMem, clicks, sz.hashSessClicks},
	}
	set := &jobSet{}
	for _, s := range specs {
		j := newRunJob(sz, s.w, s.e, s.taskMem, s.cache, s.size)
		if err := verifyRun(rec, j, s.w, s.cache.prefix(s.size)); err != nil {
			return nil, err
		}
		set.jobs = append(set.jobs, j)
	}
	return set, nil
}

func setupDelta(seed uint64, sz sizes, rec *recorder) (instance, error) {
	cc := clickConfig(seed)
	dsz := sz
	dsz.block = sz.deltaBlock
	clickBytes := max(sz.deltaCountClicks, sz.deltaWindowedClicks, sz.deltaSessClicks)
	clicks := newInputCache(rec, "gen.clicks", cc.Block, clickBytes, dsz.block)
	d := onepass.DefaultDelta(cc, seed, 0.01)
	type spec struct {
		w    *workloads.Workload
		e    onepass.Engine
		size int64
	}
	specs := []spec{
		{workloads.PerUserCount(cc), onepass.Resident, sz.deltaCountClicks},
		{workloads.WindowedSessionization(cc, 0), onepass.HashIncremental, sz.deltaWindowedClicks},
		{workloads.Sessionization(cc), onepass.Hadoop, sz.deltaSessClicks},
	}
	set := &jobSet{}
	for _, s := range specs {
		j := newRunJob(dsz, s.w, s.e, 0, clicks, s.size)
		j.span = "onepass.rundelta"
		j.delta = &d
		if err := verifyDelta(rec, j, s.w, dsz.block); err != nil {
			return nil, err
		}
		set.jobs = append(set.jobs, j)
	}
	return set, nil
}

// verifyDelta checks a full re-run over the evolved dataset against
// workloads.Reference, then requires RunDelta's incremental answer to carry
// the same checksum, and pins it. It also adds the re-mapped delta blocks'
// records to the job's record count.
func verifyDelta(rec *recorder, j *runJob, w *workloads.Workload, blockSize int64) error {
	evolved := onepass.DeltaDataset(j.data, *j.delta, blockSize)
	end := rec.start("gen.delta")
	nBase := int(j.data.Size / blockSize)
	blocks := make([][]byte, evolved.Size/blockSize)
	for i := range blocks {
		blocks[i] = evolved.Gen(i, blockSize)
	}
	changed := append([][]byte(nil), blocks[nBase:]...)
	for _, b := range j.delta.DirtyBlocks(nBase) {
		changed = append(changed, blocks[b])
	}
	j.records += countRecords(&j.job, changed)
	end()

	end = rec.start("workloads.reference")
	want := workloads.Reference(w, blocks)
	end()

	end = rec.start("verify.full_rerun")
	cfg := j.cfg
	cfg.RetainOutput, cfg.DiscardOutput = true, false
	full, err := onepass.Run(cfg, evolved, j.job)
	end()
	if err != nil {
		return fmt.Errorf("%s: full re-run: %w", j.label, err)
	}
	if err := sameOutput(full.Output, want); err != nil {
		return fmt.Errorf("%s: full re-run: %w", j.label, err)
	}

	defer rec.start("verify.onepass.rundelta")()
	dr, err := onepass.RunDelta(j.cfg, j.data, j.job, *j.delta)
	if err != nil {
		return fmt.Errorf("%s: delta verify run: %w", j.label, err)
	}
	if dr.Incremental.OutputChecksum != full.OutputChecksum {
		return fmt.Errorf("%s: incremental checksum %016x, full re-run %016x",
			j.label, dr.Incremental.OutputChecksum, full.OutputChecksum)
	}
	j.checksum = full.OutputChecksum
	return nil
}

// fleet is the small-job workload: a service over one shared cluster fed by
// three open-loop Poisson tenants. Its jobs' checksums are not visible from
// outside the service, so an operation is verified three ways: every mix
// entry's output equals workloads.Reference through onepass.Run at the
// fleet's sizes, one audited fleet run reports no invariant failure, and
// every timed run's report (all virtual-clock numbers) must be byte-equal
// to that audited run's.
type fleet struct {
	sz      sizes
	clicks  *inputCache
	tenants []fleetTenant
	jobs    int
	records int64
	digest  uint64 // of the verified report
}

// arrivalSeed seeds the tenants' Poisson arrivals, and unlike every other
// input it does not follow -seed: the arrival pattern decides which jobs
// overlap, and from one pattern to the next peak heap and virtual makespan
// move by 20 % — more than any bound the contract allows could cover. The
// bytes the jobs read do follow -seed.
const arrivalSeed = 1998

type fleetTenant struct {
	name   string
	weight float64
	rate   float64 // Poisson arrivals per virtual second
	jobs   int
	mix    []fleetMix
}

type fleetMix struct {
	w      *workloads.Workload
	engine onepass.Engine
}

func (f *fleet) sinkable() bool { return false }

func setupFleet(seed uint64, sz sizes, rec *recorder) (instance, error) {
	cc := clickConfig(seed)
	f := &fleet{sz: sz}
	f.clicks = newInputCache(rec, "gen.clicks", cc.Block, sz.fleetJobBytes, sz.fleetBlock)
	f.tenants = []fleetTenant{
		{"a", 2, 200, sz.fleetJobs[0], []fleetMix{
			{workloads.PerUserCount(cc), onepass.HashIncremental},
			{workloads.PageFrequency(cc), onepass.Resident}}},
		{"b", 1, 200, sz.fleetJobs[1], []fleetMix{
			{workloads.PerUserCount(cc), onepass.MapReduceOnline},
			{workloads.Sessionization(cc), onepass.Hadoop}}},
		{"c", 1, 100, sz.fleetJobs[2], []fleetMix{
			{workloads.Sessionization(cc), onepass.HashHotKey},
			{workloads.PageFrequency(cc), onepass.HashHybrid}}},
	}
	jobRecords := countRecords(&f.tenants[0].mix[0].w.Job, f.clicks.blocks)
	fsz := sz
	fsz.block, fsz.reducers = sz.fleetBlock, sz.fleetReducers
	for _, t := range f.tenants {
		f.jobs += t.jobs
		f.records += int64(t.jobs) * jobRecords
		for _, m := range t.mix {
			j := newRunJob(fsz, m.w, m.engine, 0, f.clicks, sz.fleetJobBytes)
			if err := verifyRun(rec, j, m.w, f.clicks.blocks); err != nil {
				return nil, err
			}
		}
	}

	end := rec.start("verify.fleet")
	_, rep, err := f.run(rec, true)
	end()
	if err != nil {
		return nil, fmt.Errorf("audited fleet run: %w", err)
	}
	if rej := rejected(rep); rej != 0 || rep.Jobs != f.jobs || len(rep.Failures) != 0 {
		return nil, fmt.Errorf("audited fleet run: %d of %d jobs finished, %d rejected, %d invariant failures",
			rep.Jobs, f.jobs, rej, len(rep.Failures))
	}
	f.digest, err = reportDigest(rep)
	return f, err
}

// run builds the service, registers the cached input under each workload's
// path, attaches the tenants and drives the simulation to the end.
func (f *fleet) run(rec *recorder, audit bool) (*service.Service, *service.Report, error) {
	cfg := service.Config{
		BlockSize:          f.sz.fleetBlock,
		Reducers:           f.sz.fleetReducers,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 4,
		Audit:              audit,
		// The slot-share audit assumes backlog long enough for shares to
		// converge; this fleet's joint-backlog windows last about 0.1
		// virtual seconds of mixed-size jobs, and whether they pass depends
		// on the arrival seed. A tolerance of 1 makes that one check
		// vacuous; conservation, leak, fair-pick, starvation and
		// slot-conservation audits stay armed.
		ShareTolerance: 1,
	}
	for _, t := range f.tenants {
		cfg.Tenants = append(cfg.Tenants, service.TenantConfig{Name: t.name, Weight: t.weight})
	}
	end := rec.start("service.new")
	svc, err := service.New(cfg)
	end()
	if err != nil {
		return nil, nil, err
	}
	registered := map[string]bool{}
	var loads []loadgen.TenantLoad
	for i, t := range f.tenants {
		load := loadgen.TenantLoad{
			Tenant:  t.name,
			Arrival: loadgen.Poisson(arrivalSeed+int64(i), t.rate),
			Jobs:    t.jobs,
		}
		for _, m := range t.mix {
			path := "input/" + m.w.Name
			if !registered[path] {
				registered[path] = true
				if err := svc.RegisterInput(path, f.sz.fleetJobBytes, f.clicks.gen); err != nil {
					return nil, nil, err
				}
			}
			load.Mix = append(load.Mix, service.JobRequest{
				Engine: m.engine.String(), Job: m.w.Job, InputPath: path,
			})
		}
		loads = append(loads, load)
	}
	end = rec.start("loadgen.drive")
	err = loadgen.Drive(svc, loads)
	end()
	if err != nil {
		return nil, nil, err
	}
	defer rec.start("service.run")()
	rep, err := svc.Run()
	return svc, rep, err
}

func rejected(rep *service.Report) int {
	n := 0
	for _, t := range rep.Tenants {
		n += t.Rejected
	}
	return n
}

func reportDigest(rep *service.Report) (uint64, error) {
	b, err := rep.JSON()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

func (f *fleet) pass(rec *recorder, _ func() *onepass.TraceLog) passResult {
	out := newPassResult()
	out.ops, out.records = f.jobs, f.records
	t0 := time.Now()
	svc, rep, err := f.run(rec, false)
	out.jobWallS = time.Since(t0).Seconds()
	if err != nil {
		out.failed = f.jobs
		out.errs = append(out.errs, fmt.Sprintf("fleet: %v", err))
		return out
	}
	out.virtualS = rep.Makespan.Seconds()
	out.closureS = svc.Env().WorkStats().Busy.Seconds()
	rej := rejected(rep)
	if missing := f.jobs - rep.Jobs; missing > 0 {
		out.failed = missing
		out.errs = append(out.errs, fmt.Sprintf("fleet: %d jobs rejected, %d of %d finished", rej, rep.Jobs, f.jobs))
	}
	if d, err := reportDigest(rep); err != nil || d != f.digest {
		out.failed = f.jobs
		out.errs = append(out.errs, fmt.Sprintf("fleet: report digest %016x, verified %016x (%v)", d, f.digest, err))
	}
	wait, lat := metrics.NewHistogram(), metrics.NewHistogram()
	for _, t := range rep.Tenants {
		wait.Merge(t.QueueWait)
		lat.Merge(t.Latency)
	}
	out.layer["service.jobs"] = float64(rep.Jobs)
	out.layer["service.rejected"] = float64(rej)
	out.layer["service.queue_wait_p95_virtual_s"] = float64(wait.P95()) / 1e9
	out.layer["service.latency_p95_virtual_s"] = float64(lat.P95()) / 1e9
	return out
}

// chromeBytes renders a trace log the way cmd/runjob -trace would and
// returns the size of the result.
func chromeBytes(log *onepass.TraceLog) (int64, error) {
	var n countWriter
	err := log.WriteChrome(&n)
	return int64(n), err
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }
