// Package service is the long-running job layer over one simulated
// cluster: a job queue with per-tenant admission control, a fair-share /
// capacity scheduler that multiplexes many concurrent jobs, and per-tenant
// accounting. It is the substrate the ROADMAP's "heavy traffic" north star
// needs — instead of one engine run per simulation, a fleet of tenants
// submits jobs continuously (internal/loadgen) and the scheduler hands out
// map/reduce slots, the same slot currency engine.RunMaps and
// engine.RunReduces consume.
//
// Scheduling model. Capacity is MapSlotsPerNode/ReduceSlotsPerNode per
// compute node; every job holds one map slot and one reduce slot on each
// compute node (wired into the engine via Job.MapSlotsPerNode /
// Job.ReduceSlotsPerNode), non-preemptively for the job's lifetime.
// Admission picks the highest priority class first, and within a class the
// tenant with the least normalized service (held-slot-seconds divided by
// weight) — a deterministic fair-share rule under which backlogged tenants'
// slot-time converges to their weight ratios. Per-tenant quotas bound both
// queued jobs (MaxQueued: submissions beyond it are rejected) and
// concurrently running jobs (MaxRunning). Admission launches fair-order
// head jobs while a grant is free; since every grant is the same size, a
// head job that does not fit means no queued job fits, and admission waits
// for the next completion.
//
// Fairness invariants (armed by Config.Audit) report through the same
// engine.Audit ledger as the conservation checks: fair-pick (every
// admission chose a minimal-normalized-service tenant of the top eligible
// priority class), tenant-starvation (an eligible tenant passed over for
// StarvationPasses consecutive admissions), slot-conservation (grants never
// exceed capacity and every slot returns), and slot-share (pairwise
// normalized service under joint backlog stays within ShareTolerance).
// Everything runs at virtual instants in the single-threaded simulation, so
// two runs at the same seed produce byte-identical reports.
//
// Map-output buffers. Every job the service runs draws its map-output
// buffers from one engine.MapBuffers list, which counts the map tasks yet to
// start over the whole service: the blocks the running jobs' RunMaps have
// yet to hand out plus the input blocks of every queued job, counted from
// Submit. So a job with fewer blocks than its map slots reuses the buffers
// earlier jobs released. Only the engine takes and returns buffers; the
// service moves counts.
package service

import (
	"fmt"
	"math"
	"sort"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/engines"
	"onepass/internal/metrics"
	"onepass/internal/sim"
)

// TenantConfig describes one tenant's share of the cluster.
type TenantConfig struct {
	Name string
	// Weight is the fair-share weight (default 1): under sustained backlog a
	// tenant's slot-seconds converge to its share of the sum of backlogged
	// tenants' weights. Must be positive and finite.
	Weight float64
	// Priority is a strict class: the scheduler never admits a lower class
	// while a higher one has an admissible job. Weights apply within a
	// class. Deliberately starving a low class is caught by the
	// tenant-starvation audit.
	Priority int
	// MaxQueued bounds the tenant's queue; submissions beyond it are
	// rejected at Submit (admission control). 0 = unlimited.
	MaxQueued int
	// MaxRunning bounds the tenant's concurrently running jobs (quota).
	// 0 = unlimited.
	MaxRunning int
}

// Config sizes the shared cluster and tunes the scheduler.
type Config struct {
	Tenants []TenantConfig

	// Cluster shape: Nodes (default 10) of cluster.DefaultConfig's nodes.
	Nodes     int
	BlockSize int64 // DFS block size (default 1 MB)

	// MapSlotsPerNode / ReduceSlotsPerNode are the slot capacity the
	// scheduler divides among running jobs, per compute node (default 4+4:
	// at one map and one reduce slot per job, four concurrent jobs).
	MapSlotsPerNode    int
	ReduceSlotsPerNode int

	// Reducers is every job's reducer count (default = nodes).
	Reducers int
	// MemoryPerTask is the per-task buffer budget handed to every job; zero
	// keeps the engine default (a quarter of node memory), which is usually
	// too generous when several jobs share a node.
	MemoryPerTask int64
	// SampleInterval is each job's metrics bucket width.
	SampleInterval sim.Duration

	// Audit arms the per-job conservation audits, the end-of-run leak sweep
	// over the shared environment, and the scheduler fairness invariants.
	Audit bool
	// StarvationPasses is the tenant-starvation threshold: an eligible
	// tenant passed over by this many consecutive admissions is declared
	// starved (default 64 — generous enough for legitimate 10:1 weight
	// skew, small enough to catch strict-priority lockout).
	StarvationPasses int
	// ShareTolerance is the relative normalized-service gap allowed between
	// two same-priority tenants under joint backlog, beyond a one-job
	// granularity allowance (default 0.35).
	ShareTolerance float64

	// Parallelism sets the intra-run worker pool width (sim.Env.SetWorkers).
	Parallelism int
}

func (c *Config) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 10
	}
	if c.BlockSize == 0 {
		c.BlockSize = 1 << 20
	}
	if c.MapSlotsPerNode == 0 {
		c.MapSlotsPerNode = 4
	}
	if c.ReduceSlotsPerNode == 0 {
		c.ReduceSlotsPerNode = 4
	}
	if c.Reducers == 0 {
		c.Reducers = c.Nodes
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = engine.SampleInterval
	}
	if c.StarvationPasses == 0 {
		c.StarvationPasses = 64
	}
	if c.ShareTolerance == 0 {
		c.ShareTolerance = 0.35
	}
}

// Validate rejects malformed configurations before any simulation runs.
// A zero numeric field stands for its default; a value defaults cannot
// repair — a negative size or count, a slot capacity below one — is an
// error.
func (c *Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("service: no tenants configured")
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Nodes", int64(c.Nodes)},
		{"BlockSize", c.BlockSize},
		{"MapSlotsPerNode", int64(c.MapSlotsPerNode)},
		{"ReduceSlotsPerNode", int64(c.ReduceSlotsPerNode)},
		{"Reducers", int64(c.Reducers)},
		{"MemoryPerTask", c.MemoryPerTask},
		{"SampleInterval", int64(c.SampleInterval)},
		{"StarvationPasses", int64(c.StarvationPasses)},
	} {
		if f.v < 0 {
			return fmt.Errorf("service: %s %d is negative", f.name, f.v)
		}
	}
	if !(c.ShareTolerance >= 0) {
		return fmt.Errorf("service: ShareTolerance %g must be a non-negative number", c.ShareTolerance)
	}
	seen := make(map[string]bool, len(c.Tenants))
	for _, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("service: tenant with empty name")
		}
		if seen[t.Name] {
			return fmt.Errorf("service: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		w := t.Weight
		if w == 0 {
			w = 1
		}
		if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
			return fmt.Errorf("service: tenant %q weight %g must be positive and finite", t.Name, t.Weight)
		}
		if t.MaxQueued < 0 || t.MaxRunning < 0 {
			return fmt.Errorf("service: tenant %q has negative quota", t.Name)
		}
	}
	return nil
}

// JobRequest is one job submission. The Job template supplies the user
// functions and costs; the service owns placement-facing fields (input and
// output paths aside, it overwrites Reducers, slot grants, and output
// handling).
type JobRequest struct {
	Tenant string
	Engine string // a name or alias in internal/engines ("hadoop", "hop", "hash-hybrid", ..., "resident")
	Job    engine.Job
	// InputPath names a dataset registered with RegisterInput.
	InputPath string
}

// job is one queued/running/completed submission.
type job struct {
	id     int
	req    JobRequest
	tenant *tenant
	plan   *engine.Plan // req.Engine, resolved at Submit
	run    engine.Job   // the job launch starts, validated at Submit
	maps   int          // run's input blocks, resolved at Submit

	submitted sim.Time
	started   sim.Time
	finished  sim.Time

	res *engine.Result
}

// tenant is the live scheduling state behind one TenantConfig.
type tenant struct {
	cfg    TenantConfig
	weight float64

	queue   []*job
	running int

	// Service accounting: heldUnits integrates into slotSeconds between
	// accrual instants; normalized service (slotSeconds/weight) drives the
	// fair-share pick.
	heldUnits   int
	slotSeconds float64
	lastAccrual sim.Time

	// passedOver counts consecutive admissions that launched another tenant
	// while this one was eligible; starvedAt remembers the first violation
	// so the audit fires once.
	passedOver int
	starved    bool

	// maxJobNorm is the largest single completed job's normalized
	// slot-seconds — the granularity allowance in the slot-share check.
	maxJobNorm float64

	jobs      int
	rejected  int
	queueWait *metrics.Histogram // submit -> launch, ns
	latency   *metrics.Histogram // submit -> completion, ns
	exec      *metrics.Histogram // launch -> completion, ns
}

func (t *tenant) normService() float64 { return t.slotSeconds / t.weight }

// backlogged reports unmet demand: jobs waiting in queue.
func (t *tenant) backlogged() bool { return len(t.queue) > 0 }

// pairShare accumulates, for one ordered tenant pair, the service each side
// accrued while both were backlogged (joint-backlog window) and that
// window's length — the basis of the slot-share invariant.
type pairShare struct {
	jointTime    sim.Duration
	srvA, srvB   float64 // slot-seconds during joint backlog
	everBacklog  bool
	lastBothFrom sim.Time
}

// Service multiplexes jobs from many tenants over one simulated cluster.
type Service struct {
	cfg Config

	env *sim.Env
	cl  *cluster.Cluster
	d   *dfs.DFS

	tenants []*tenant // sorted by name: the deterministic iteration order
	byName  map[string]*tenant

	wake *sim.Trigger

	// Every job holds one map and one reduce slot on each compute node:
	// computeNodes units from each pool, jobUnits in all.
	computeNodes int
	jobUnits     int
	freeMap      int // free map slot units (per-node slots x compute nodes)
	freeReduce   int
	capMap       int
	capReduce    int

	nextID     int
	queued     int
	running    int
	submitters int // registered producers still live
	completed  []*job

	// pairs[i][j] for i<j tracks joint-backlog share accounting.
	pairs map[[2]int]*pairShare

	audit    *engine.Audit // service-level ledger; nil unless cfg.Audit
	jobFails []engine.AuditFailure

	// bufs is the map-output buffer list every job's runtime shares; it
	// counts a queued job's blocks from Submit until launch.
	bufs *engine.MapBuffers
}

// New builds the service's private simulation substrate. Register inputs
// with RegisterInput, attach submitters (loadgen), then call Run.
func New(cfg Config) (*Service, error) {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := sim.New()
	env.SetWorkers(cfg.Parallelism)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = cfg.Nodes
	cl := cluster.New(env, ccfg)
	s := &Service{
		cfg:    cfg,
		env:    env,
		cl:     cl,
		d:      dfs.New(cl, cfg.BlockSize, 1),
		byName: make(map[string]*tenant),
		wake:   env.NewTrigger("service-wake"),
		pairs:  make(map[[2]int]*pairShare),
		bufs:   engine.NewMapBuffers(),
	}
	s.computeNodes = len(cl.ComputeNodes())
	s.jobUnits = 2 * s.computeNodes
	s.capMap = cfg.MapSlotsPerNode * s.computeNodes
	s.capReduce = cfg.ReduceSlotsPerNode * s.computeNodes
	s.freeMap, s.freeReduce = s.capMap, s.capReduce
	for _, tc := range cfg.Tenants {
		w := tc.Weight
		if w == 0 {
			w = 1
		}
		t := &tenant{
			cfg: tc, weight: w,
			queueWait: metrics.NewHistogram(),
			latency:   metrics.NewHistogram(),
			exec:      metrics.NewHistogram(),
		}
		s.tenants = append(s.tenants, t)
		s.byName[tc.Name] = t
	}
	sort.Slice(s.tenants, func(i, j int) bool { return s.tenants[i].cfg.Name < s.tenants[j].cfg.Name })
	if cfg.Audit {
		s.audit = engine.NewAudit()
	}
	return s, nil
}

// Env exposes the simulation environment so load generators can spawn
// their submitter processes before Run.
func (s *Service) Env() *sim.Env { return s.env }

// RegisterInput registers a deterministic generated dataset jobs can name
// as their InputPath. Call before Run.
func (s *Service) RegisterInput(path string, size int64, gen func(block int, size int64) []byte) error {
	return s.d.RegisterGenerated(path, size, gen)
}

// Results returns every completed job's Result, in completion order.
func (s *Service) Results() []*engine.Result {
	out := make([]*engine.Result, len(s.completed))
	for i, j := range s.completed {
		out[i] = j.res
	}
	return out
}

// AddSubmitter registers one producer process; the scheduler keeps draining
// until every registered submitter called SubmitterDone and all work
// finished.
func (s *Service) AddSubmitter() { s.submitters++ }

// SubmitterDone marks one producer finished.
func (s *Service) SubmitterDone() {
	s.submitters--
	if s.submitters < 0 {
		panic("service: SubmitterDone without AddSubmitter")
	}
	s.wake.Broadcast()
}

// Submit enqueues a job for req.Tenant at the current virtual instant. It
// returns an error (and rejects the job) when the tenant is unknown, the
// engine is unknown, the job as launch would run it is invalid, its input
// has no blocks, or the tenant's queue is full (MaxQueued admission
// control).
func (s *Service) Submit(p *sim.Proc, req JobRequest) error {
	t, ok := s.byName[req.Tenant]
	if !ok {
		return fmt.Errorf("service: unknown tenant %q", req.Tenant)
	}
	eng, err := engines.Find(req.Engine)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	run := s.engineJob(req, s.nextID)
	if err := run.Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	blocks, err := engine.InputBlocks(s.d, run.InputPath)
	if err == nil && len(blocks) == 0 {
		err = fmt.Errorf("input %q has no blocks", run.InputPath)
	}
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if t.cfg.MaxQueued > 0 && len(t.queue) >= t.cfg.MaxQueued {
		t.rejected++
		return fmt.Errorf("service: tenant %q queue full (%d)", req.Tenant, t.cfg.MaxQueued)
	}
	s.accrueAll(p.Now())
	j := &job{
		id: s.nextID, req: req, tenant: t, plan: engines.List[eng].Plan, run: run, maps: len(blocks), submitted: p.Now(),
	}
	s.nextID++
	t.queue = append(t.queue, j)
	s.queued++
	s.bufs.Expect(j.maps)
	s.wake.Broadcast()
	return nil
}

// engineJob is the job the service runs for req under id: the request's
// template with the service's placement-facing fields.
func (s *Service) engineJob(req JobRequest, id int) engine.Job {
	jb := req.Job
	jb.InputPath = req.InputPath
	jb.OutputPath = fmt.Sprintf("out/job-%d", id)
	jb.DiscardOutput = true
	jb.RetainOutput = false
	jb.Reducers = s.cfg.Reducers
	jb.MapSlotsPerNode = 1
	jb.ReduceSlotsPerNode = 1
	if s.cfg.MemoryPerTask > 0 {
		jb.MemoryPerTask = s.cfg.MemoryPerTask
	}
	return jb
}

// accrueAll advances every tenant's slot-second integral — and every
// pair's joint-backlog window — to now. Called before any state change that
// affects holdings or backlog.
func (s *Service) accrueAll(now sim.Time) {
	for _, t := range s.tenants {
		if t.lastAccrual < now {
			dt := now.Sub(t.lastAccrual).Seconds()
			t.slotSeconds += float64(t.heldUnits) * dt
		}
	}
	// Joint-backlog pair accounting: while both tenants of a same-priority
	// pair have queued demand, their service rates should track their
	// weights; accumulate window length and in-window service.
	for i := 0; i < len(s.tenants); i++ {
		for k := i + 1; k < len(s.tenants); k++ {
			a, b := s.tenants[i], s.tenants[k]
			if a.cfg.Priority != b.cfg.Priority {
				continue
			}
			if a.backlogged() && b.backlogged() {
				ps := s.pair(i, k)
				dt := now.Sub(maxTime(a.lastAccrual, b.lastAccrual))
				if dt > 0 {
					ps.jointTime += dt
					ps.srvA += float64(a.heldUnits) * dt.Seconds()
					ps.srvB += float64(b.heldUnits) * dt.Seconds()
				}
				ps.everBacklog = true
			}
		}
	}
	for _, t := range s.tenants {
		t.lastAccrual = now
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func (s *Service) pair(i, k int) *pairShare {
	key := [2]int{i, k}
	ps, ok := s.pairs[key]
	if !ok {
		ps = &pairShare{}
		s.pairs[key] = ps
	}
	return ps
}

// eligible reports whether t can be admitted right now: demand queued and
// quota headroom.
func (s *Service) eligible(t *tenant) bool {
	if len(t.queue) == 0 {
		return false
	}
	if t.cfg.MaxRunning > 0 && t.running >= t.cfg.MaxRunning {
		return false
	}
	return true
}

// pick returns the admission choice under the fair-share rule: top priority
// class, then least normalized service, then lexical tenant name. Nil when
// no tenant is eligible.
func (s *Service) pick() *tenant {
	var best *tenant
	for _, t := range s.tenants {
		if !s.eligible(t) {
			continue
		}
		if best == nil ||
			t.cfg.Priority > best.cfg.Priority ||
			(t.cfg.Priority == best.cfg.Priority && t.normService() < best.normService()) {
			best = t
		}
	}
	return best
}

// admit launches fair-order head jobs until slots or demand run out.
func (s *Service) admit(p *sim.Proc) {
	for {
		t := s.pick()
		if t == nil {
			return
		}
		if s.computeNodes > s.freeMap || s.computeNodes > s.freeReduce {
			// No grant is free: wait for a completion.
			return
		}
		s.launch(p, t, t.queue[0])
	}
}

// launch grants j its slots, charges the pass-over counters, and starts the
// engine. Runs inside the scheduler process; spawning the engine's
// processes does not block.
func (s *Service) launch(p *sim.Proc, t *tenant, j *job) {
	now := p.Now()
	s.accrueAll(now)

	if s.audit != nil {
		s.checkFairPick(t)
		for _, o := range s.tenants {
			if o == t || !s.eligible(o) {
				continue
			}
			o.passedOver++
			if o.passedOver >= s.cfg.StarvationPasses && !o.starved {
				o.starved = true
				s.audit.Fail("tenant-starvation", "tenant "+o.cfg.Name,
					fmt.Sprintf("passed over by %d consecutive admissions while holding demand (%d queued)",
						o.passedOver, len(o.queue)))
			}
		}
		t.passedOver = 0
	}

	t.queue = t.queue[1:]
	s.queued--
	t.running++
	s.running++
	s.freeMap -= s.computeNodes
	s.freeReduce -= s.computeNodes
	if s.audit != nil && (s.freeMap < 0 || s.freeReduce < 0) {
		s.audit.Fail("slot-conservation", "scheduler",
			fmt.Sprintf("free slots went negative: map %d, reduce %d", s.freeMap, s.freeReduce))
	}
	t.heldUnits += s.jobUnits
	j.started = now
	t.queueWait.Record(int64(now.Sub(j.submitted)))

	rt := engine.NewRuntimeSampled(s.env, s.cl, s.d, s.cfg.SampleInterval)
	if s.cfg.Audit {
		rt.Audit = engine.NewAudit()
		rt.Audit.SharedRuntime = true
	}
	// The job's blocks leave the queued count here and Start's RunMaps
	// counts them again before it returns: nothing runs in between, so no
	// buffer is released against a count that lacks them.
	rt.MapBuffers = s.bufs
	s.bufs.Expect(-j.maps)
	done := func(cp *sim.Proc, res *engine.Result) {
		// The sampler's final tick is scheduled at this same instant but runs
		// only after this process blocks; yield once so the series include
		// the completion sample before FinishResult snapshots them.
		cp.Yield()
		rt.FinishResult(res)
		s.complete(cp, j, res)
	}
	// Snapshot answers would be discarded with the rest of the output.
	if err := engine.Start(rt, j.run, engine.Options{DisableSnapshots: true}, j.plan, done); err != nil {
		// Submit validated the job and resolved its input; a Start failure
		// here is an engine Setup bug that would otherwise strand the job's
		// slots. Fail loudly.
		panic(fmt.Sprintf("service: launching job %d (%s/%s): %v", j.id, j.req.Tenant, j.req.Engine, err))
	}
}

// checkFairPick re-derives the admission rule and records a fair-pick
// violation if the scheduler's choice disagrees — a regression net for
// future scheduler changes.
func (s *Service) checkFairPick(chosen *tenant) {
	if !s.eligible(chosen) {
		s.audit.Fail("fair-pick", "tenant "+chosen.cfg.Name, "admitted while ineligible")
		return
	}
	for _, o := range s.tenants {
		if o == chosen || !s.eligible(o) {
			continue
		}
		if o.cfg.Priority > chosen.cfg.Priority {
			s.audit.Fail("fair-pick", "tenant "+chosen.cfg.Name,
				fmt.Sprintf("admitted over higher-priority %s (%d > %d)", o.cfg.Name, o.cfg.Priority, chosen.cfg.Priority))
		} else if o.cfg.Priority == chosen.cfg.Priority && o.normService() < chosen.normService() {
			s.audit.Fail("fair-pick", "tenant "+chosen.cfg.Name,
				fmt.Sprintf("admitted with normalized service %.6f over %s at %.6f",
					chosen.normService(), o.cfg.Name, o.normService()))
		}
	}
}

// complete returns j's slots and records its latency. Runs inside the job's
// controller process at the completion instant.
func (s *Service) complete(p *sim.Proc, j *job, res *engine.Result) {
	now := p.Now()
	s.accrueAll(now)
	t := j.tenant
	t.heldUnits -= s.jobUnits
	t.running--
	s.running--
	s.freeMap += s.computeNodes
	s.freeReduce += s.computeNodes
	j.finished = now
	j.res = res
	t.jobs++
	t.latency.Record(int64(now.Sub(j.submitted)))
	t.exec.Record(int64(now.Sub(j.started)))
	if norm := float64(s.jobUnits) * now.Sub(j.started).Seconds() / t.weight; norm > t.maxJobNorm {
		t.maxJobNorm = norm
	}
	for _, f := range res.AuditFailures {
		f.Where = fmt.Sprintf("job %d (%s/%s) %s", j.id, j.req.Tenant, j.req.Engine, f.Where)
		s.jobFails = append(s.jobFails, f)
	}
	s.completed = append(s.completed, j)
	s.wake.Broadcast()
}

// scheduler is the admission process: admit whatever fits, sleep on the
// wake trigger, exit when every submitter finished and all work drained.
func (s *Service) scheduler(p *sim.Proc) {
	for {
		s.admit(p)
		if s.submitters == 0 && s.queued == 0 && s.running == 0 {
			return
		}
		s.wake.Wait(p)
	}
}

// Run drives the simulation to completion and returns the service report.
// The returned error is non-nil when any armed invariant — per-job
// conservation, scheduler fairness, or the end-of-run leak sweep — failed;
// the report is returned either way. A job task that fails
// (*engine.TaskError) ends every tenant's run: Run returns that error and
// no report.
func (s *Service) Run() (*Report, error) {
	s.env.Go("service-scheduler", s.scheduler)
	if err := engine.Drive(s.env); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.accrueAll(s.env.Now())
	if s.audit != nil {
		if s.freeMap != s.capMap || s.freeReduce != s.capReduce {
			s.audit.Fail("slot-conservation", "scheduler",
				fmt.Sprintf("slots not returned: map %d/%d, reduce %d/%d free at shutdown",
					s.freeMap, s.capMap, s.freeReduce, s.capReduce))
		}
		s.checkShares()
		s.audit.CheckSim(s.env, s.cl)
	}
	rep := s.report()
	if len(rep.Failures) > 0 {
		return rep, fmt.Errorf("service: %d invariant failure(s):\n%s",
			len(rep.Failures), engine.FormatAuditFailures(rep.Failures))
	}
	return rep, nil
}

// checkShares enforces the slot-share invariant: for every same-priority
// tenant pair, normalized service accrued during joint-backlog windows must
// agree within ShareTolerance plus a one-job granularity allowance. A
// tenant whose weight entitles it to slot-time but accrued none under joint
// backlog fails here even before the starvation counter trips.
func (s *Service) checkShares() {
	for i := 0; i < len(s.tenants); i++ {
		for k := i + 1; k < len(s.tenants); k++ {
			ps, ok := s.pairs[[2]int{i, k}]
			if !ok || !ps.everBacklog {
				continue
			}
			a, b := s.tenants[i], s.tenants[k]
			// Windows shorter than a couple of completed jobs are dominated
			// by non-preemptive granularity; skip them.
			floor := 2 * (a.maxJobNorm*a.weight + b.maxJobNorm*b.weight) / float64(s.capMap+s.capReduce)
			if ps.jointTime.Seconds() < floor || ps.jointTime == 0 {
				continue
			}
			na := ps.srvA / a.weight
			nb := ps.srvB / b.weight
			gap := math.Abs(na - nb)
			allow := s.cfg.ShareTolerance*math.Max(na, nb) + 2*math.Max(a.maxJobNorm, b.maxJobNorm)
			if gap > allow {
				s.audit.Fail("slot-share", fmt.Sprintf("tenants %s/%s", a.cfg.Name, b.cfg.Name),
					fmt.Sprintf("normalized service gap %.3f exceeds %.3f over %.1fs joint backlog (%s=%.3f, %s=%.3f per unit weight)",
						gap, allow, ps.jointTime.Seconds(), a.cfg.Name, na, b.cfg.Name, nb))
			}
		}
	}
}
