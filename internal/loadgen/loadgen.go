// Package loadgen is the YCSB-style open-loop client fleet for
// internal/service: each tenant gets one submitter process whose arrival
// process fires independently of job completions (open loop — queueing
// delay cannot throttle the offered load, which is what exposes the latency
// knee as the cluster saturates). Arrival generators are seeded and run on
// virtual time, so a fleet is exactly reproducible: same seeds, same
// virtual-instant submission schedule, byte-identical service reports.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"onepass/internal/service"
	"onepass/internal/sim"
)

// Arrival yields successive inter-arrival gaps on virtual time.
type Arrival interface {
	Next() sim.Duration
}

// maxGap is the first float64 past sim.Duration's range (2^63 ns).
const maxGap = float64(1 << 63)

// CheckRate reports whether jobsPerSec can drive an arrival process: it
// must be positive and finite, and its mean gap of 1/jobsPerSec seconds
// must fit a sim.Duration.
func CheckRate(jobsPerSec float64) error {
	if !(jobsPerSec > 0) || math.IsInf(jobsPerSec, 0) {
		return fmt.Errorf("loadgen: arrival rate %g must be positive and finite", jobsPerSec)
	}
	if float64(sim.Second)/jobsPerSec >= maxGap {
		return fmt.Errorf("loadgen: arrival rate %g jobs/s is too small: its gap overflows virtual time", jobsPerSec)
	}
	return nil
}

func mustRate(jobsPerSec float64) {
	if err := CheckRate(jobsPerSec); err != nil {
		panic(err.Error())
	}
}

type constant struct{ gap sim.Duration }

// Constant returns a deterministic arrival process: one job every
// 1/jobsPerSec seconds. It panics on a rate CheckRate rejects.
func Constant(jobsPerSec float64) Arrival {
	mustRate(jobsPerSec)
	return constant{gap: sim.Duration(math.Round(float64(sim.Second) / jobsPerSec))}
}

func (c constant) Next() sim.Duration { return c.gap }

type poisson struct {
	rng  *rand.Rand
	rate float64
}

// Poisson returns a seeded Poisson arrival process (exponential
// inter-arrival gaps, rounded to the nanosecond) at jobsPerSec mean rate.
// Same seed, same gap sequence. It panics on a rate CheckRate rejects.
func Poisson(seed int64, jobsPerSec float64) Arrival {
	mustRate(jobsPerSec)
	return &poisson{rng: rand.New(rand.NewSource(seed)), rate: jobsPerSec}
}

// Next draws a gap; a draw past sim.Duration's range saturates rather than
// wrapping negative.
func (p *poisson) Next() sim.Duration {
	g := math.Round(p.rng.ExpFloat64() / p.rate * float64(sim.Second))
	if g >= maxGap {
		return math.MaxInt64
	}
	return sim.Duration(g)
}

// TenantLoad describes one tenant's traffic: an arrival process, a total
// job count, and a mix of job requests cycled round-robin. Each request's
// Tenant field is overwritten with TenantLoad.Tenant at submission.
type TenantLoad struct {
	Tenant  string
	Arrival Arrival
	Jobs    int
	Mix     []service.JobRequest
}

// Drive spawns one open-loop submitter process per load on the service's
// environment. Call before svc.Run; Run then sees every submitter through
// AddSubmitter/SubmitterDone and keeps scheduling until all traffic drains.
// Rejected submissions (queue-full admission control) are counted per
// tenant by the service and do not stop the submitter; any other Submit
// error is a configuration bug and panics.
func Drive(svc *service.Service, loads []TenantLoad) error {
	for _, l := range loads {
		if l.Arrival == nil {
			return fmt.Errorf("loadgen: tenant %q has no arrival process", l.Tenant)
		}
		if len(l.Mix) == 0 {
			return fmt.Errorf("loadgen: tenant %q has an empty job mix", l.Tenant)
		}
		if l.Jobs <= 0 {
			return fmt.Errorf("loadgen: tenant %q job count %d must be positive", l.Tenant, l.Jobs)
		}
		l := l
		svc.AddSubmitter()
		svc.Env().Go("loadgen-"+l.Tenant, func(p *sim.Proc) {
			defer svc.SubmitterDone()
			for i := 0; i < l.Jobs; i++ {
				p.Sleep(l.Arrival.Next())
				req := l.Mix[i%len(l.Mix)]
				req.Tenant = l.Tenant
				if err := svc.Submit(p, req); err != nil && !strings.Contains(err.Error(), "queue full") {
					panic(fmt.Sprintf("loadgen: tenant %s job %d: %v", l.Tenant, i, err))
				}
			}
		})
	}
	return nil
}
