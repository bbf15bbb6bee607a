// Package metrics collects the observables the paper plots: per-second CPU
// utilization, CPU iowait, disk bytes read/written, task timelines, and
// per-phase CPU-cycle accounting. All values are keyed by virtual time from
// the sim package; a Sampler process snapshots cumulative integrals every
// bucket and stores per-bucket deltas, mirroring how iostat/ps sampled the
// paper's physical cluster.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"onepass/internal/sim"
)

// Series is a bucketed time series. Bucket i covers virtual time
// [i*Bucket, (i+1)*Bucket).
type Series struct {
	Name   string
	Unit   string
	Bucket sim.Duration
	vals   []float64
}

// NewSeries returns an empty series with the given bucket width.
func NewSeries(name, unit string, bucket sim.Duration) *Series {
	if bucket <= 0 {
		panic("metrics: bucket must be positive")
	}
	return &Series{Name: name, Unit: unit, Bucket: bucket}
}

func (s *Series) bucketIndex(t sim.Time) int {
	return int(int64(t) / int64(s.Bucket))
}

func (s *Series) grow(idx int) {
	for len(s.vals) <= idx {
		s.vals = append(s.vals, 0)
	}
}

// Add accumulates v into the bucket containing t.
func (s *Series) Add(t sim.Time, v float64) {
	idx := s.bucketIndex(t)
	s.grow(idx)
	s.vals[idx] += v
}

// Set overwrites the bucket containing t.
func (s *Series) Set(t sim.Time, v float64) {
	idx := s.bucketIndex(t)
	s.grow(idx)
	s.vals[idx] = v
}

// Len returns the number of buckets recorded.
func (s *Series) Len() int { return len(s.vals) }

// At returns the value of bucket i, or 0 past the end.
func (s *Series) At(i int) float64 {
	if i < 0 || i >= len(s.vals) {
		return 0
	}
	return s.vals[i]
}

// Max returns the largest bucket value (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.vals {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean over all buckets (0 for empty).
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// MeanOver returns the mean over buckets [from, to) clamped to the series.
func (s *Series) MeanOver(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(s.vals) {
		to = len(s.vals)
	}
	if to <= from {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals[from:to] {
		sum += v
	}
	return sum / float64(to-from)
}

// sparkRunes index by level, low to high.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Spark renders the series as a sparkline scaled to its own maximum, for
// eyeballing figure shapes in bench output.
func (s *Series) Spark() string {
	if len(s.vals) == 0 {
		return "(empty)"
	}
	max := s.Max()
	var b strings.Builder
	for _, v := range s.vals {
		level := 0
		if max > 0 {
			level = int(v / max * float64(len(sparkRunes)-1))
		}
		if level < 0 {
			level = 0
		}
		if level >= len(sparkRunes) {
			level = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[level])
	}
	return b.String()
}

// Downsample returns a new series whose buckets each aggregate factor
// consecutive buckets of s using the mean. Used to keep sparklines readable
// for long runs.
func (s *Series) Downsample(factor int) *Series {
	if factor <= 1 {
		return s
	}
	out := NewSeries(s.Name, s.Unit, s.Bucket*sim.Duration(factor))
	for i := 0; i < len(s.vals); i += factor {
		end := i + factor
		if end > len(s.vals) {
			end = len(s.vals)
		}
		sum := 0.0
		for _, v := range s.vals[i:end] {
			sum += v
		}
		out.vals = append(out.vals, sum/float64(end-i))
	}
	return out
}

// seriesJSON is the encoded form of a Series.
type seriesJSON struct {
	Name   string       `json:"name"`
	Unit   string       `json:"unit"`
	Bucket sim.Duration `json:"bucket"`
	Vals   []float64    `json:"vals"`
}

// MarshalJSON encodes the series with its bucket width, as Result JSON
// prints it.
func (s *Series) MarshalJSON() ([]byte, error) {
	return json.Marshal(seriesJSON{Name: s.Name, Unit: s.Unit, Bucket: s.Bucket, Vals: s.vals})
}

// Counters is a bag of named cumulative counters (bytes spilled, records
// emitted, comparisons executed, ...). It is safe for concurrent use: the
// parallel experiment driver runs many simulations at once, and while each
// run owns its own bag, nothing in the type should force that discipline on
// future callers (e.g. a shared cross-run aggregate).
type Counters struct {
	mu   sync.Mutex
	vals map[string]float64
}

// NewCounters returns an empty counter bag.
func NewCounters() *Counters { return &Counters{vals: make(map[string]float64)} }

// Add accumulates v into name.
func (c *Counters) Add(name string, v float64) {
	c.mu.Lock()
	c.vals[name] += v
	c.mu.Unlock()
}

// Get returns the value of name (0 if absent).
func (c *Counters) Get(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[name]
}

// Names returns all counter names, sorted.
func (c *Counters) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.vals))
	for n := range c.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MarshalJSON encodes the bag as a plain name→value object (keys sorted by
// encoding/json, so output is deterministic).
func (c *Counters) MarshalJSON() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Marshal(c.vals)
}

// CPUAccount attributes CPU seconds to named phases ("map-fn", "sort",
// "merge", ...), reproducing the paper's Table II accounting. The phases are
// a handful of fixed names and every Node.Compute charges one, so they live
// in a short slice kept sorted by name and found by scanning it, not in a
// map that would hash the name on every charge.
type CPUAccount struct {
	phases []phaseSeconds
}

// phaseSeconds is one phase's CPU seconds.
type phaseSeconds struct {
	name    string
	seconds float64
}

// NewCPUAccount returns an empty account.
func NewCPUAccount() *CPUAccount { return &CPUAccount{} }

// slot returns phase's seconds, entering the phase at its sorted place on
// first use.
func (a *CPUAccount) slot(phase string) *float64 {
	for i := range a.phases {
		if a.phases[i].name == phase {
			return &a.phases[i].seconds
		}
	}
	i := sort.Search(len(a.phases), func(i int) bool { return a.phases[i].name > phase })
	a.phases = slices.Insert(a.phases, i, phaseSeconds{name: phase})
	return &a.phases[i].seconds
}

// Add charges d of CPU time to phase.
func (a *CPUAccount) Add(phase string, d sim.Duration) { *a.slot(phase) += d.Seconds() }

// Seconds returns the CPU seconds charged to phase.
func (a *CPUAccount) Seconds(phase string) float64 {
	for _, ps := range a.phases {
		if ps.name == phase {
			return ps.seconds
		}
	}
	return 0
}

// Total returns the CPU seconds across all phases. Summation follows the
// sorted phase order: float addition is order-sensitive in its last bits,
// so a fixed order keeps byte-identical runs reporting identical totals.
func (a *CPUAccount) Total() float64 {
	t := 0.0
	for _, ps := range a.phases {
		t += ps.seconds
	}
	return t
}

// Share returns phase's fraction of the total (0 if the account is empty).
func (a *CPUAccount) Share(phase string) float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	return a.Seconds(phase) / t
}

// Phases returns all phase names, sorted.
func (a *CPUAccount) Phases() []string {
	names := make([]string, len(a.phases))
	for i, ps := range a.phases {
		names[i] = ps.name
	}
	return names
}

// Merge adds every phase of other into a.
func (a *CPUAccount) Merge(other *CPUAccount) {
	for _, ps := range other.phases {
		*a.slot(ps.name) += ps.seconds
	}
}

// Sub subtracts a baseline from every phase (for per-job accounting on a
// shared cluster).
func (a *CPUAccount) Sub(base *CPUAccount) {
	for _, ps := range base.phases {
		*a.slot(ps.name) -= ps.seconds
	}
}

// MarshalJSON encodes the account as a phase→seconds object.
func (a *CPUAccount) MarshalJSON() ([]byte, error) {
	seconds := make(map[string]float64, len(a.phases))
	for _, ps := range a.phases {
		seconds[ps.name] = ps.seconds
	}
	return json.Marshal(seconds)
}

// FormatBytes renders a byte count with a binary-ish human suffix.
func FormatBytes(b float64) string {
	abs := math.Abs(b)
	switch {
	case abs >= 1<<30:
		return fmt.Sprintf("%.2f GB", b/(1<<30))
	case abs >= 1<<20:
		return fmt.Sprintf("%.2f MB", b/(1<<20))
	case abs >= 1<<10:
		return fmt.Sprintf("%.2f KB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
