package experiments

// The service saturation experiment is not a paper table — it is the
// load-vs-latency curve the paper's one-pass argument implies: a shared
// cluster serving many tenants' jobs has a capacity knee, and engines that
// finish jobs sooner push the knee to higher offered load. An open-loop
// client fleet (internal/loadgen) offers Poisson traffic at multiples of
// the cluster's measured per-engine service rate; per-tenant queue-wait and
// end-to-end job latency quantiles come back from the service's mergeable
// histograms.
//
// This experiment does not go through Session.Run: each data point is a
// whole multi-job service run on its own simulated cluster, not one engine
// run, built by the renderer (deterministically — seeded arrivals on virtual
// time) and so not in the run cache.

import (
	"fmt"

	"onepass/internal/engines"
	"onepass/internal/loadgen"
	"onepass/internal/service"
	"onepass/internal/sim"
)

// serviceLoadMults are the offered-load multipliers of the calibrated
// service rate: comfortably under, at, and far past the knee.
var serviceLoadMults = []float64{0.25, 1, 4}

// serviceInputGB is the per-job input in paper-scale GB (scaled by
// Scale.Factor like every experiment input).
const serviceInputGB = 8

const serviceJobsPerTenant = 10

func (s *Session) serviceConfig() service.Config {
	return service.Config{
		Tenants: []service.TenantConfig{
			{Name: "gold", Weight: 2},
			{Name: "silver", Weight: 1},
		},
		Nodes:              s.Scale.Nodes,
		BlockSize:          s.Scale.BlockSize,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 4,
		Reducers:           s.Scale.Reducers,
		SampleInterval:     s.sampleInterval(),
		Parallelism:        s.Parallelism,
		Audit:              true,
	}
}

// serviceRun executes one fleet: both tenants offer ratePerTenant jobs/s of
// Poisson traffic, jobs each, on the named engine. Fairness invariants are
// always armed; a failure is a bug, so it panics like Session.execute does.
func (s *Session) serviceRun(engineName string, ratePerTenant float64, jobs int) *service.Report {
	svc, err := service.New(s.serviceConfig())
	if err != nil {
		panic(fmt.Sprintf("experiments: service config: %v", err))
	}
	w := s.workload("per-user-count", false)
	path := "input/" + w.Name
	if err := svc.RegisterInput(path, s.Scale.Bytes(serviceInputGB), w.Gen); err != nil {
		panic(err)
	}
	req := service.JobRequest{Engine: engineName, Job: w.Job, InputPath: path}
	if err := loadgen.Drive(svc, []loadgen.TenantLoad{
		{Tenant: "gold", Arrival: loadgen.Poisson(1001, ratePerTenant), Jobs: jobs, Mix: []service.JobRequest{req}},
		{Tenant: "silver", Arrival: loadgen.Poisson(2002, ratePerTenant), Jobs: jobs, Mix: []service.JobRequest{req}},
	}); err != nil {
		panic(err)
	}
	rep, err := svc.Run()
	if err != nil {
		panic(fmt.Sprintf("experiments: service run (%s at %.3f jobs/s/tenant): %v", engineName, ratePerTenant, err))
	}
	return rep
}

// serviceRate calibrates one engine's service capacity: an uncontended run
// (one job per tenant) measures the median job execution time; with four
// default-grant jobs fitting the slot capacity, the cluster's service rate
// is 4 jobs per execution time.
func (s *Session) serviceRate(engineName string) float64 {
	cal := s.serviceRun(engineName, 1, 1)
	var exec sim.Duration
	for _, tr := range cal.Tenants {
		if d := sim.Duration(tr.Exec.P50()); d > exec {
			exec = d
		}
	}
	if exec <= 0 {
		panic("experiments: service calibration measured zero execution time")
	}
	return 4.0 / exec.Seconds()
}

// ServiceSaturation renders the saturation experiment: per registered
// engine (resident included), offered load vs per-tenant job latency and
// queue wait, with the knee factor (p95 latency at 4x load over 0.25x) as
// the headline number.
func (s *Session) ServiceSaturation() *Report {
	rep := &Report{
		ID:    "Service (saturation)",
		Title: "multi-tenant job service: open-loop offered load vs per-tenant latency",
	}
	for _, eng := range engines.Names() {
		total := s.serviceRate(eng)
		fig := Figure{Title: fmt.Sprintf("%s — offered load vs latency (service rate %.2f jobs/s)", eng, total)}
		var p95Low, p95High sim.Duration
		for _, mult := range serviceLoadMults {
			perTenant := mult * total / 2
			r := s.serviceRun(eng, perTenant, serviceJobsPerTenant)
			for _, tr := range r.Tenants {
				fig.Lines = append(fig.Lines, fmt.Sprintf(
					"load %.2fx %-6s (%6.2f jobs/s offered): latency p50/p95/p99 %s/%s/%s  queue-wait p50/p95 %s/%s",
					mult, tr.Name, perTenant,
					fmtDur(sim.Duration(tr.Latency.P50())), fmtDur(sim.Duration(tr.Latency.P95())), fmtDur(sim.Duration(tr.Latency.P99())),
					fmtDur(sim.Duration(tr.QueueWait.P50())), fmtDur(sim.Duration(tr.QueueWait.P95()))))
				if tr.Name == "gold" {
					switch mult {
					case serviceLoadMults[0]:
						p95Low = sim.Duration(tr.Latency.P95())
					case serviceLoadMults[len(serviceLoadMults)-1]:
						p95High = sim.Duration(tr.Latency.P95())
					}
				}
			}
		}
		knee := float64(p95High) / float64(p95Low)
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"latency knee: gold p95 grows %.1fx from %.2fx to %.2fx offered load; fairness and conservation audits passed on every run",
			knee, serviceLoadMults[0], serviceLoadMults[len(serviceLoadMults)-1]))
		rep.Figures = append(rep.Figures, fig)
		rep.Rows = append(rep.Rows, Row{
			Name:     eng,
			Paper:    "knee past capacity",
			Measured: fmt.Sprintf("p95 ×%.1f at %gx load", knee, serviceLoadMults[len(serviceLoadMults)-1]),
			Note:     fmt.Sprintf("service rate %.2f jobs/s, 2 tenants (weights 2:1), Poisson arrivals", total),
		})
	}
	return rep
}
