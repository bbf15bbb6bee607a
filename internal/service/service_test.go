package service_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/loadgen"
	"onepass/internal/service"
	"onepass/internal/sim"
	"onepass/internal/workloads"
)

// testConfig is a small shared-cluster shape: 6 nodes, enough slots for
// three concurrent default-grant jobs.
func testConfig(tenants ...service.TenantConfig) service.Config {
	return service.Config{
		Tenants:            tenants,
		Nodes:              6,
		BlockSize:          256 << 10,
		MapSlotsPerNode:    3,
		ReduceSlotsPerNode: 3,
		Reducers:           6,
		Audit:              true,
	}
}

// register installs the per-user-count clickstream input and returns a
// request template against it.
func register(t *testing.T, svc *service.Service, size int64) service.JobRequest {
	t.Helper()
	w := workloads.PerUserCount(gen.DefaultClickConfig())
	if err := svc.RegisterInput("input/"+w.Name, size, w.Gen); err != nil {
		t.Fatal(err)
	}
	return service.JobRequest{
		Engine:    "hash-incremental",
		Job:       w.Job,
		InputPath: "input/" + w.Name,
	}
}

func runFleet(t *testing.T, cfg service.Config, loads func(req service.JobRequest) []loadgen.TenantLoad) (*service.Report, error) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := register(t, svc, 1<<20)
	if err := loadgen.Drive(svc, loads(req)); err != nil {
		t.Fatal(err)
	}
	return svc.Run()
}

func twoTenantLoads(req service.JobRequest, jobs int) func(service.JobRequest) []loadgen.TenantLoad {
	return func(r service.JobRequest) []loadgen.TenantLoad {
		return []loadgen.TenantLoad{
			{Tenant: "gold", Arrival: loadgen.Poisson(7, 2.0), Jobs: jobs, Mix: []service.JobRequest{r}},
			{Tenant: "bronze", Arrival: loadgen.Poisson(11, 2.0), Jobs: jobs, Mix: []service.JobRequest{r}},
		}
	}
}

func TestServiceRunsFleetCleanly(t *testing.T) {
	cfg := testConfig(
		service.TenantConfig{Name: "gold", Weight: 2},
		service.TenantConfig{Name: "bronze", Weight: 1},
	)
	rep, err := runFleet(t, cfg, twoTenantLoads(service.JobRequest{}, 6))
	if err != nil {
		t.Fatalf("service run failed: %v", err)
	}
	if rep.Jobs != 12 {
		t.Fatalf("completed %d jobs, want 12", rep.Jobs)
	}
	for _, tr := range rep.Tenants {
		if tr.Jobs != 6 {
			t.Errorf("tenant %s completed %d jobs, want 6", tr.Name, tr.Jobs)
		}
		if tr.Latency.Count() != 6 || tr.QueueWait.Count() != 6 {
			t.Errorf("tenant %s histograms incomplete: latency %d, queue-wait %d",
				tr.Name, tr.Latency.Count(), tr.QueueWait.Count())
		}
		if tr.SlotSeconds <= 0 {
			t.Errorf("tenant %s accrued no slot-seconds", tr.Name)
		}
	}
	if rep.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

func TestServiceDeterministic(t *testing.T) {
	run := func() string {
		cfg := testConfig(
			service.TenantConfig{Name: "gold", Weight: 2},
			service.TenantConfig{Name: "bronze", Weight: 1},
		)
		rep, err := runFleet(t, cfg, twoTenantLoads(service.JobRequest{}, 5))
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render() + "\n" + string(js)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different reports:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestServiceAllEngines runs one job per engine through the service to pin
// the Start-based dispatch for every engine name.
func TestServiceAllEngines(t *testing.T) {
	engines := []string{"hadoop", "hop", "hash-hybrid", "hash-incremental", "hash-hotkey"}
	cfg := testConfig(service.TenantConfig{Name: "solo"})
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := register(t, svc, 1<<20)
	var mix []service.JobRequest
	for _, e := range engines {
		r := req
		r.Engine = e
		mix = append(mix, r)
	}
	if err := loadgen.Drive(svc, []loadgen.TenantLoad{
		{Tenant: "solo", Arrival: loadgen.Constant(4), Jobs: len(mix), Mix: mix},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Run()
	if err != nil {
		t.Fatalf("service run failed: %v", err)
	}
	if rep.Jobs != len(engines) {
		t.Fatalf("completed %d jobs, want %d", rep.Jobs, len(engines))
	}
}

// TestWeightedSharesUnderBacklog drives two tenants with identical demand
// far above capacity and checks the joint-backlog accounting tracks the
// 3:1 weights: per-unit-weight service agrees across the pair (so raw
// slot-time split ~3:1), and the favored tenant's jobs get through faster.
// Whole-run slot-second totals can NOT show this — both tenants submit the
// same total work, so totals equalize no matter the weights.
func TestWeightedSharesUnderBacklog(t *testing.T) {
	cfg := testConfig(
		service.TenantConfig{Name: "heavy", Weight: 3},
		service.TenantConfig{Name: "light", Weight: 1},
	)
	rep, err := runFleet(t, cfg, func(r service.JobRequest) []loadgen.TenantLoad {
		return []loadgen.TenantLoad{
			// Jobs at this scale finish in ~0.04s, so the whole batch must
			// arrive as a burst to stand a backlog on a 3-concurrent-job
			// cluster.
			{Tenant: "heavy", Arrival: loadgen.Constant(200), Jobs: 12, Mix: []service.JobRequest{r}},
			{Tenant: "light", Arrival: loadgen.Constant(200), Jobs: 12, Mix: []service.JobRequest{r}},
		}
	})
	if err != nil {
		t.Fatalf("service run failed: %v", err)
	}
	if len(rep.Pairs) != 1 {
		t.Fatalf("got %d pair reports, want 1:\n%s", len(rep.Pairs), rep.Render())
	}
	p := rep.Pairs[0]
	if p.JointSeconds <= 0 {
		t.Fatalf("no joint backlog recorded:\n%s", rep.Render())
	}
	// Raw slot-time ratio during joint backlog: NormA*3 vs NormB*1.
	ratio := (p.NormA * 3) / (p.NormB * 1)
	if ratio < 1.8 || ratio > 5 {
		t.Errorf("joint-backlog slot-time ratio %.2f not near the 3:1 weights (%+v)", ratio, p)
	}
	var heavyP50, lightP50 int64
	for _, tr := range rep.Tenants {
		switch tr.Name {
		case "heavy":
			heavyP50 = tr.Latency.P50()
		case "light":
			lightP50 = tr.Latency.P50()
		}
	}
	if lightP50 <= heavyP50 {
		t.Errorf("weight-1 tenant p50 latency %d should exceed weight-3 tenant's %d", lightP50, heavyP50)
	}
}

// TestQuotaEnforced pins MaxRunning=1: the tenant's jobs serialize even
// with free slots, and MaxQueued rejections are counted.
func TestQuotaEnforced(t *testing.T) {
	cfg := testConfig(
		service.TenantConfig{Name: "capped", MaxRunning: 1, MaxQueued: 2},
	)
	rep, err := runFleet(t, cfg, func(r service.JobRequest) []loadgen.TenantLoad {
		return []loadgen.TenantLoad{
			{Tenant: "capped", Arrival: loadgen.Constant(50), Jobs: 10, Mix: []service.JobRequest{r}},
		}
	})
	if err != nil {
		t.Fatalf("service run failed: %v", err)
	}
	tr := rep.Tenants[0]
	if tr.Rejected == 0 {
		t.Error("burst at 50 jobs/s against MaxQueued=2 rejected nothing")
	}
	if tr.Jobs+tr.Rejected != 10 {
		t.Errorf("jobs %d + rejected %d != 10 submitted", tr.Jobs, tr.Rejected)
	}
	// With MaxRunning=1 every completed job but the first waited for its
	// predecessor: p50 queue wait must exceed half the median execution.
	if tr.Jobs > 2 && tr.QueueWait.P50() < tr.Exec.P50()/2 {
		t.Errorf("MaxRunning=1 but p50 queue wait %d < half p50 exec %d", tr.QueueWait.P50(), tr.Exec.P50())
	}
}

// TestStarvationCaught rigs a strict-priority config where a high-priority
// tenant's flood locks out a low-priority one, and requires the
// tenant-starvation invariant to fire and fail the run.
func TestStarvationCaught(t *testing.T) {
	cfg := testConfig(
		service.TenantConfig{Name: "vip", Priority: 1},
		service.TenantConfig{Name: "peasant", Priority: 0},
	)
	cfg.StarvationPasses = 8
	rep, err := runFleet(t, cfg, func(r service.JobRequest) []loadgen.TenantLoad {
		return []loadgen.TenantLoad{
			// The vip burst stands a backlog for the whole drain (~40 jobs,
			// 3 at a time); the low-priority tenant's jobs arrive just after
			// the slots fill, so it holds demand while vip's strict priority
			// wins every admission.
			{Tenant: "vip", Arrival: loadgen.Constant(300), Jobs: 40, Mix: []service.JobRequest{r}},
			{Tenant: "peasant", Arrival: loadgen.Constant(50), Jobs: 6, Mix: []service.JobRequest{r}},
		}
	})
	if err == nil {
		t.Fatal("strict-priority lockout ran clean; want tenant-starvation failure")
	}
	if !strings.Contains(err.Error(), "tenant-starvation") {
		t.Fatalf("run failed but not with tenant-starvation:\n%v", err)
	}
	found := false
	for _, f := range rep.Failures {
		if f.Invariant == "tenant-starvation" && strings.Contains(f.Where, "peasant") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no tenant-starvation failure naming peasant in report:\n%s", rep.Render())
	}
}

// TestSubmitValidation covers the admission-control error paths.
func TestSubmitValidation(t *testing.T) {
	if _, err := service.New(service.Config{}); err == nil {
		t.Error("empty tenant set accepted")
	}
	if _, err := service.New(service.Config{Tenants: []service.TenantConfig{{Name: "a", Weight: -1}}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := service.New(service.Config{Tenants: []service.TenantConfig{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Error("duplicate tenant accepted")
	}

	cfg := testConfig(service.TenantConfig{Name: "a"})
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := register(t, svc, 1<<20)
	svc.AddSubmitter()
	var errs []string
	svc.Env().Go("probe", func(p *sim.Proc) {
		defer svc.SubmitterDone()
		bad := []service.JobRequest{
			func() (r service.JobRequest) { r = req; r.Tenant = "nobody"; return }(),
			func() (r service.JobRequest) { r = req; r.Tenant = "a"; r.Engine = "spark"; return }(),
		}
		for _, b := range bad {
			if err := svc.Submit(p, b); err != nil {
				errs = append(errs, err.Error())
			}
		}
	})
	if _, err := svc.Run(); err != nil {
		t.Fatalf("run with only rejected submissions failed: %v", err)
	}
	if len(errs) != 2 {
		t.Fatalf("got %d submit errors, want 2: %v", len(errs), errs)
	}
	for i, want := range []string{"unknown tenant", "unknown engine"} {
		if !strings.Contains(errs[i], want) {
			t.Errorf("error %d = %q, want %q", i, errs[i], want)
		}
	}
}

// TestSubmitRejectsUnregisteredInput: a request naming an input nobody
// registered, or a job its launch could not start, is Submit's error and is
// never queued. Launching such a job would panic inside the simulation and
// end every tenant's run.
func TestSubmitRejectsUnregisteredInput(t *testing.T) {
	svc, err := service.New(testConfig(service.TenantConfig{Name: "gold"}))
	if err != nil {
		t.Fatal(err)
	}
	good := register(t, svc, 1<<20)
	good.Tenant = "gold"
	missing, noMap := good, good
	missing.InputPath = "input/missing"
	noMap.Job.Map = nil
	var errs []error
	expected := -1
	svc.AddSubmitter()
	svc.Env().Go("probe", func(p *sim.Proc) {
		defer svc.SubmitterDone()
		if err := svc.Submit(p, good); err != nil {
			t.Errorf("good request: %v", err)
		}
		errs = append(errs, svc.Submit(p, missing), svc.Submit(p, noMap))
		expected = svc.MapBuffers().Unstarted()
	})
	rep, err := svc.Run()
	if err != nil {
		t.Fatalf("run with rejected submissions failed: %v", err)
	}
	for i, want := range []string{`no files under "input/missing"`, "needs a map function"} {
		if errs[i] == nil || !strings.Contains(errs[i].Error(), want) {
			t.Errorf("submit error %d = %v, want one containing %q", i, errs[i], want)
		}
	}
	if expected != 4 {
		t.Errorf("after the rejected requests the service expects %d map tasks, want the good job's 4", expected)
	}
	if rep.Jobs != 1 || rep.Tenants[0].Rejected != 0 {
		t.Errorf("%d jobs finished and %d were rejected, want 1 and 0", rep.Jobs, rep.Tenants[0].Rejected)
	}

	cfg := testConfig(service.TenantConfig{Name: "gold", Weight: 2}, service.TenantConfig{Name: "bronze"})
	if rep, err := runFleet(t, cfg, twoTenantLoads(service.JobRequest{}, 3)); err != nil || rep.Jobs != 6 {
		t.Fatalf("the following fleet finished %d of 6 jobs: %v", rep.Jobs, err)
	}
}

// TestConfigValidateRejectsUnrepairableValues: a zero field means its
// default, but a value the defaults cannot repair fails New instead of
// panicking or hanging later in the run.
func TestConfigValidateRejectsUnrepairableValues(t *testing.T) {
	ok := testConfig(service.TenantConfig{Name: "a"})
	if _, err := service.New(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*service.Config)
	}{
		{"negative Nodes", func(c *service.Config) { c.Nodes = -1 }},
		{"negative BlockSize", func(c *service.Config) { c.BlockSize = -1 }},
		{"negative MapSlotsPerNode", func(c *service.Config) { c.MapSlotsPerNode = -1 }},
		{"negative ReduceSlotsPerNode", func(c *service.Config) { c.ReduceSlotsPerNode = -2 }},
		{"negative Reducers", func(c *service.Config) { c.Reducers = -1 }},
		{"negative MemoryPerTask", func(c *service.Config) { c.MemoryPerTask = -1 }},
		{"negative SampleInterval", func(c *service.Config) { c.SampleInterval = -sim.Millisecond }},
		{"negative StarvationPasses", func(c *service.Config) { c.StarvationPasses = -1 }},
		{"negative ShareTolerance", func(c *service.Config) { c.ShareTolerance = -0.1 }},
		{"NaN ShareTolerance", func(c *service.Config) { c.ShareTolerance = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.edit(&cfg)
			if _, err := service.New(cfg); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// A job task that fails on its data (engine.Abort) ends the fleet's run:
// Run returns the *engine.TaskError, naming the failed job's task, and no
// report, and no process of any tenant is left behind. Failing the one job
// alone is the next step.
func TestTaskFailureEndsTheRunWithItsError(t *testing.T) {
	svc, err := service.New(testConfig(service.TenantConfig{Name: "a"}, service.TenantConfig{Name: "b"}))
	if err != nil {
		t.Fatal(err)
	}
	good := register(t, svc, 1<<20)
	good.Tenant = "a"
	bad := good
	bad.Tenant = "b"
	bad.Job.Name, bad.Job.Fresh = "damaged", nil
	bad.Job.Map = func(rec []byte, emit engine.Emit) {
		engine.Abort(errors.New("record does not parse"))
	}
	svc.AddSubmitter()
	svc.Env().Go("submit", func(p *sim.Proc) {
		defer svc.SubmitterDone()
		for _, req := range []service.JobRequest{good, bad, good} {
			if err := svc.Submit(p, req); err != nil {
				t.Error(err)
			}
		}
	})
	rep, err := svc.Run()
	var te *engine.TaskError
	if !errors.As(err, &te) || rep != nil {
		t.Fatalf("run with a failing job: report %v, error %v", rep != nil, err)
	}
	if te.Job != "damaged" || te.Kind != "map" || !strings.Contains(err.Error(), "record does not parse") {
		t.Errorf("error names %s %s task %d: %v", te.Job, te.Kind, te.Task, err)
	}
	if n := svc.Env().LiveCount(); n != 0 {
		t.Fatalf("%d processes live after the failed run", n)
	}
}
