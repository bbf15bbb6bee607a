package metrics

import (
	"slices"

	"onepass/internal/sim"
)

// A Source holds cumulative quantities read by index: Cumulative(i)
// returns quantity i (a time integral such as busy unit-seconds, or a byte
// counter) as of the current virtual time. An object sampled into several
// series is one Source, not a closure per series.
type Source interface {
	Cumulative(i int) float64
}

// Sampler is a simulation process that snapshots probes every interval and
// records per-interval deltas into series — the virtual-time analogue of the
// iostat/ps logging loop the paper used.
type Sampler struct {
	env      *sim.Env
	interval sim.Duration
	probes   []probeEntry
	stop     *sim.Trigger
	stopped  bool
	started  bool
}

type probeEntry struct {
	src    Source
	i      int     // the quantity of src sampled
	scale  float64 // multiplier applied to each delta
	series *Series
	last   float64
}

// NewSampler returns a sampler ticking at the given interval.
func NewSampler(env *sim.Env, interval sim.Duration) *Sampler {
	if interval <= 0 {
		panic("metrics: sampler interval must be positive")
	}
	return &Sampler{env: env, interval: interval, stop: env.NewTrigger("sampler-stop")}
}

// Grow makes room for n more tracked series, so that registering them
// allocates nothing further in the sampler.
func (s *Sampler) Grow(n int) { s.probes = slices.Grow(s.probes, n) }

// Track makes *series an empty series named name and records into it scale
// x the per-interval delta of src's quantity i. For a busy-time integral,
// scale = 1/(intervalSeconds x capacity) yields utilization in [0,1]. The
// series is the caller's storage, so many can share one slice.
func (s *Sampler) Track(series *Series, name, unit string, src Source, i int, scale float64) {
	*series = Series{Name: name, Unit: unit, Bucket: s.interval}
	e := probeEntry{src: src, i: i, scale: scale, series: series}
	if s.started {
		// Registered mid-run: baseline at the current probe value, or the
		// first bucket would absorb the probe's whole cumulative history.
		e.last = src.Cumulative(i)
	}
	s.probes = append(s.probes, e)
}

// Start spawns the sampling process. The sampler runs until Stop is called,
// taking one final sample at the stop instant so the last partial interval
// is captured. The inter-tick wait is interruptible: a pending tick must not
// outlive the job, or it would stretch the measured makespan of any run
// shorter than the next tick boundary (the same hazard fault injectors
// avoid by waiting on the job-completion trigger).
func (s *Sampler) Start() {
	if s.started {
		panic("metrics: sampler started twice")
	}
	s.started = true
	for i := range s.probes {
		e := &s.probes[i]
		e.last = e.src.Cumulative(e.i)
	}
	s.env.Go("metrics-sampler", func(p *sim.Proc) {
		for {
			fired := s.stop.WaitTimeout(p, s.interval)
			s.sample(p.Now())
			if fired || s.stopped {
				return
			}
		}
	})
}

// Stop wakes the sampler for its final partial sample and exits it.
func (s *Sampler) Stop() {
	s.stopped = true
	s.stop.Broadcast()
}

func (s *Sampler) sample(now sim.Time) {
	// Record into the bucket that just ended: now falls exactly on a bucket
	// boundary, so step back one nanosecond.
	at := now - 1
	if at < 0 {
		at = 0
	}
	for i := range s.probes {
		e := &s.probes[i]
		cur := e.src.Cumulative(e.i)
		e.series.Add(at, (cur-e.last)*e.scale)
		e.last = cur
	}
}
