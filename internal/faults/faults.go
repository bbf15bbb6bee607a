// Package faults defines the deterministic fault schedules every engine
// honors: which node degrades or dies, when, and for how long. The paper's
// case for persisting map output at all is fault tolerance (§III.B.2), and
// its HOP discussion (§III.D) calls out push shuffle as trading recovery
// away — so fault injection is an engine-level concern, not a Hadoop-only
// test knob. A Schedule is pure data: engine.Runtime installs it, the
// simulated substrate applies it, and because everything downstream of the
// virtual clock is deterministic, the same schedule (or the same chaos
// seed) reproduces the same run byte for byte.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"onepass/internal/sim"
)

// Kind classifies a fault.
type Kind int

// Fault kinds. NodeFailure is terminal (the machine is lost between tasks:
// it takes no new work, its NIC stops delivering, and its persisted scratch
// data is gone). The other three are degradations over a window: they end
// when the window closes or the job finishes.
const (
	// NodeFailure kills the node at At.
	NodeFailure Kind = iota
	// DiskSlow scales the node's disk service times by Factor over the
	// window — a failing spindle or a saturated shared volume.
	DiskSlow
	// NetDegrade scales transfer times through the node's NIC by Factor
	// over the window — a renegotiated link or an oversubscribed uplink.
	NetDegrade
	// Straggler scales the node's CPU time by Factor over the window — the
	// classic slow-node case that delays every task placed on it.
	Straggler
)

var kindNames = map[Kind]string{
	NodeFailure: "fail",
	DiskSlow:    "disk-slow",
	NetDegrade:  "net-slow",
	Straggler:   "straggler",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Terminal reports whether the fault permanently removes the node (no
// restore when the window ends).
func (k Kind) Terminal() bool { return k == NodeFailure }

// Fault is one scheduled fault against one node.
type Fault struct {
	Kind Kind
	// Node is the target node id.
	Node int
	// At is when the fault strikes, relative to job start.
	At sim.Duration
	// For is the degradation window; zero means until the job ends.
	// Ignored for NodeFailure (dead stays dead).
	For sim.Duration
	// Factor is the slowdown multiplier for degradations (>= 1). Ignored
	// for NodeFailure.
	Factor float64
}

// String renders the fault in the Parse grammar.
func (f Fault) String() string {
	s := fmt.Sprintf("%s@%gs", f.Kind, f.At.Seconds())
	if f.For > 0 && !f.Kind.Terminal() {
		s += fmt.Sprintf("+%gs", f.For.Seconds())
	}
	s += fmt.Sprintf(":n%d", f.Node)
	if !f.Kind.Terminal() && f.Factor > 0 {
		s += fmt.Sprintf("x%g", f.Factor)
	}
	return s
}

// Schedule is an ordered set of faults for one job run.
type Schedule struct {
	Faults []Fault
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Faults) == 0 }

// String renders the schedule in the Parse grammar (comma-separated).
func (s Schedule) String() string {
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Validate checks every fault against a cluster of n nodes whose compute
// nodes — the ones that run tasks, and so recover lost map output — are
// compute. A schedule that fails every compute node leaves no node to
// recover on, so it is rejected; a node counts once however many failures
// name it, and a storage node's failure does not count.
func (s Schedule) Validate(nodes int, compute []int) error {
	failed := make(map[int]bool)
	for _, f := range s.Faults {
		if _, ok := kindNames[f.Kind]; !ok {
			return fmt.Errorf("faults: unknown kind %d", int(f.Kind))
		}
		if f.Node < 0 || f.Node >= nodes {
			return fmt.Errorf("faults: node %d out of range [0,%d)", f.Node, nodes)
		}
		if f.At < 0 {
			return fmt.Errorf("faults: negative injection time %v", f.At)
		}
		if f.For < 0 {
			return fmt.Errorf("faults: negative window %v", f.For)
		}
		// NaN compares false against everything, so "NaN < 1" would let a
		// non-finite factor through; require factor >= 1 AND finite.
		if !f.Kind.Terminal() && (!(f.Factor >= 1) || math.IsInf(f.Factor, 0)) {
			return fmt.Errorf("faults: %s needs a finite factor >= 1, got %g", f.Kind, f.Factor)
		}
		if f.Kind.Terminal() && slices.Contains(compute, f.Node) {
			failed[f.Node] = true
		}
	}
	if len(failed) > 0 && len(failed) == len(compute) {
		return fmt.Errorf("faults: schedule kills all %d compute nodes", len(compute))
	}
	return nil
}

// Parse reads a comma-separated schedule in the grammar
//
//	kind@T[+W]:nN[xF]
//
// where kind is fail | disk-slow | net-slow | straggler, T is the injection
// time in seconds (suffix "s" optional), +W an optional window length, nN
// the target node, and xF the slowdown factor for degradations (default 8).
// A fail takes neither a window nor a factor, a window is not negative, a
// factor is positive, and times are under 10^6 s in magnitude, so that
// Parse(s.String()) reproduces any schedule Parse accepts.
// Examples:
//
//	fail@2s:n1
//	disk-slow@1s+5s:n2x8
//	straggler@0s:n3x50,net-slow@4s:n0x10
func Parse(spec string) (Schedule, error) {
	var s Schedule
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		f, err := parseOne(tok)
		if err != nil {
			return Schedule{}, err
		}
		s.Faults = append(s.Faults, f)
	}
	return s, nil
}

func parseOne(tok string) (Fault, error) {
	name, rest, ok := strings.Cut(tok, "@")
	if !ok {
		return Fault{}, fmt.Errorf("faults: %q: want kind@time:nNODE", tok)
	}
	var f Fault
	found := false
	for k, n := range kindNames {
		if n == name {
			f.Kind, found = k, true
			break
		}
	}
	if !found {
		return Fault{}, fmt.Errorf("faults: unknown kind %q (want fail|disk-slow|net-slow|straggler)", name)
	}
	when, target, ok := strings.Cut(rest, ":")
	if !ok {
		return Fault{}, fmt.Errorf("faults: %q: missing :nNODE target", tok)
	}
	at, window, hasWindow := strings.Cut(when, "+")
	var err error
	if f.At, err = parseSeconds(at); err != nil {
		return Fault{}, fmt.Errorf("faults: %q: bad time %q: %v", tok, at, err)
	}
	if hasWindow {
		if f.Kind.Terminal() {
			return Fault{}, fmt.Errorf("faults: %q: %s takes no window", tok, f.Kind)
		}
		if f.For, err = parseSeconds(window); err != nil {
			return Fault{}, fmt.Errorf("faults: %q: bad window %q: %v", tok, window, err)
		}
		if f.For < 0 {
			return Fault{}, fmt.Errorf("faults: %q: negative window %q", tok, window)
		}
	}
	node, factor, hasFactor := strings.Cut(target, "x")
	if !strings.HasPrefix(node, "n") {
		return Fault{}, fmt.Errorf("faults: %q: target %q must be nNODE", tok, node)
	}
	if f.Node, err = strconv.Atoi(node[1:]); err != nil {
		return Fault{}, fmt.Errorf("faults: %q: bad node %q", tok, node)
	}
	if f.Kind.Terminal() {
		// Terminal faults keep Factor 0: String omits it.
		if hasFactor {
			return Fault{}, fmt.Errorf("faults: %q: %s takes no factor", tok, f.Kind)
		}
		return f, nil
	}
	f.Factor = 8
	if hasFactor {
		// String omits a factor that is not positive, NaN included.
		if f.Factor, err = strconv.ParseFloat(factor, 64); err != nil || !(f.Factor > 0) {
			return Fault{}, fmt.Errorf("faults: %q: bad factor %q", tok, factor)
		}
	}
	return f, nil
}

// maxSeconds bounds a time's magnitude. Below it String renders seconds
// without an exponent, whose "+" would read as a window, and the rendering
// reparses to the same nanosecond.
const maxSeconds = 1e6

// parseSeconds reads a time in seconds and rounds it to the nearest
// nanosecond. String renders times as %g seconds, which is exact for the
// float64 value but a hair off the integer nanosecond it came from;
// truncation (sim.Seconds) would then shift a reparsed schedule by 1 ns and
// break Parse(s.String()) == s.
func parseSeconds(s string) (sim.Duration, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite seconds %q", s)
	}
	ns := math.Round(v * float64(sim.Second))
	if math.Abs(ns) >= maxSeconds*float64(sim.Second) {
		return 0, fmt.Errorf("seconds %q out of range (-%g, %g)", s, float64(maxSeconds), float64(maxSeconds))
	}
	return sim.Duration(ns), nil
}

// Chaos generates a seeded random schedule over a run expected to last
// about horizon: one node failure plus a handful of degradations, all
// timed within the horizon's first two thirds so they land while work is
// in flight. The same (seed, nodes, horizon) always yields the same
// schedule — chaos here means adversarial, not irreproducible.
func Chaos(seed int64, nodes int, horizon sim.Duration) Schedule {
	rng := rand.New(rand.NewSource(seed))
	span := float64(horizon) * 2 / 3
	at := func() sim.Duration { return sim.Duration(rng.Float64() * span) }
	var s Schedule
	// Exactly one failure: chaos schedules must stay survivable, and the
	// recovery machinery tolerates one lost replica set by construction.
	s.Faults = append(s.Faults, Fault{Kind: NodeFailure, Node: rng.Intn(nodes), At: at()})
	degrade := []Kind{DiskSlow, NetDegrade, Straggler}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		s.Faults = append(s.Faults, Fault{
			Kind:   degrade[rng.Intn(len(degrade))],
			Node:   rng.Intn(nodes),
			At:     at(),
			For:    sim.Duration(float64(horizon) / 6),
			Factor: float64(2 + rng.Intn(15)),
		})
	}
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].At < s.Faults[j].At })
	return s
}
