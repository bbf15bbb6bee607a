package profile

import (
	"fmt"
	"sort"

	"onepass/internal/engine"
	"onepass/internal/metrics"
	"onepass/internal/sim"
)

// Segment is one piece of the critical path. Segments are contiguous — each
// starts where the previous ends — and together cover [0, makespan] exactly,
// which is what makes "the critical path bounds the makespan" a checkable
// claim rather than a narrative.
type Segment struct {
	// Kind is what bounded the run during this interval: "map", "shuffle",
	// "merge", "reduce" (work on the binding task), "wait" (the binding task
	// existed but its predecessor had finished — scheduling/slot delay),
	// "startup" (before the first binding task started), or "finalize"
	// (after the last task ended, job-completion bookkeeping).
	Kind string `json:"kind"`
	// Node/Task/Attempt identify the binding span; -1/-1/0 for gaps.
	Node    int `json:"node"`
	Task    int `json:"task"`
	Attempt int `json:"attempt,omitempty"`

	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
}

// Duration returns the segment length.
func (s Segment) Duration() sim.Duration { return s.End.Sub(s.Start) }

// KindShare aggregates critical-path time by segment kind; the shares sum
// exactly to the makespan, mirroring the cause attribution.
type KindShare struct {
	Kind  string       `json:"kind"`
	Time  sim.Duration `json:"time"`
	Share float64      `json:"share"`
}

// pathKinds is the canonical composition order: the paper's
// map→shuffle→merge→reduce chain, then the gap kinds.
var pathKinds = []string{"map", "shuffle", "merge", "reduce", "wait", "startup", "finalize"}

// criticalPath walks backward from the last-ending task span to time zero,
// at every step asking "what was the run waiting on at this instant":
//
//   - inside the binding reduce task, its own phase spans refine the answer
//     (shuffle ingest, blocking merge passes, the final reduce scan);
//   - the reduce task binds back to the last-ending map attempt — the map
//     barrier — and from there each map binds to the attempt whose end
//     allowed its slot to take it (latest end ≤ its start);
//   - holes between spans become explicit "wait"/"startup"/"finalize"
//     segments instead of silently vanishing.
//
// The result is validated to be contiguous over [0, makespan]; any engine
// that breaks its span DAG surfaces here as a hard error, not a subtly wrong
// report.
func criticalPath(spans []metrics.Span, makespan sim.Duration) ([]Segment, error) {
	var maps, reduces []metrics.Span
	phasesByTask := make(map[int][]metrics.Span) // reduce task -> its phase spans
	for _, sp := range spans {
		if sp.Phase {
			phasesByTask[sp.Task] = append(phasesByTask[sp.Task], sp)
			continue
		}
		switch sp.Name {
		case engine.SpanMap:
			maps = append(maps, sp)
		case engine.SpanReduce:
			reduces = append(reduces, sp)
		}
	}
	if len(maps) == 0 && len(reduces) == 0 {
		return nil, fmt.Errorf("profile: trace has no task spans")
	}

	// The terminal span: latest end, preferring reduce over map on ties,
	// then lowest task/node/attempt — deterministic regardless of emission
	// interleaving.
	better := func(a, b metrics.Span) bool { // a beats b as terminal
		if a.Finish != b.Finish {
			return a.Finish > b.Finish
		}
		aRed, bRed := a.Name == engine.SpanReduce, b.Name == engine.SpanReduce
		if aRed != bRed {
			return aRed
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Attempt < b.Attempt
	}
	all := append(append([]metrics.Span(nil), maps...), reduces...)
	terminal := all[0]
	for _, sp := range all[1:] {
		if better(sp, terminal) {
			terminal = sp
		}
	}
	if sim.Duration(terminal.Finish) > makespan {
		return nil, fmt.Errorf("profile: span %s ends after makespan %s", terminal, makespan)
	}

	var lastMapEnd sim.Time
	for _, m := range maps {
		if m.Finish > lastMapEnd {
			lastMapEnd = m.Finish
		}
	}
	// The map attempt binding a given instant: latest end ≤ t (the attempt
	// whose completion released the constraint), deterministic tie-break.
	bindingMap := func(t sim.Time) (metrics.Span, bool) {
		var best metrics.Span
		found := false
		for _, m := range maps {
			if m.Finish > t {
				continue
			}
			if !found || better(m, best) {
				best, found = m, true
			}
		}
		return best, found
	}

	var segs []Segment
	emit := func(s Segment) {
		if s.End > s.Start {
			segs = append(segs, s)
		}
	}
	if makespan > sim.Duration(terminal.Finish) {
		emit(Segment{Kind: "finalize", Node: -1, Task: -1,
			Start: terminal.Finish, End: sim.Time(makespan)})
	}

	cur, cursor := terminal, terminal.Finish
	for {
		if cur.Name == engine.SpanReduce {
			// The reduce task is binding on [bind, cursor]; before bind the
			// map barrier was the constraint.
			bind := lastMapEnd
			if bind < cur.Start {
				bind = cur.Start
			}
			if bind > cursor {
				bind = cursor
			}
			refineReduce(cur, phasesByTask[cur.Task], bind, cursor, emit)
			cursor = bind
			if m, ok := bindingMap(cursor); ok && m.Finish == cursor {
				cur = m // the map barrier: bound by the last-ending attempt
				continue
			}
			// Reduce started at or before every map's end (or there are no
			// maps): walk to whatever map attempt preceded its start.
			if m, ok := bindingMap(cur.Start); ok {
				emit(Segment{Kind: "wait", Node: -1, Task: -1, Start: m.Finish, End: cursor})
				cursor, cur = m.Finish, m
				continue
			}
			emit(Segment{Kind: "startup", Node: -1, Task: -1, Start: 0, End: cursor})
			break
		}
		// Map attempt: it is binding over its whole extent up to the cursor.
		start := cur.Start
		if start > cursor {
			return nil, fmt.Errorf("profile: map span %s starts after path cursor %s", cur, cursor)
		}
		emit(Segment{Kind: "map", Node: cur.Node, Task: cur.Task, Attempt: cur.Attempt,
			Start: start, End: cursor})
		cursor = start
		m, ok := bindingMap(cursor)
		if !ok {
			emit(Segment{Kind: "startup", Node: -1, Task: -1, Start: 0, End: cursor})
			break
		}
		emit(Segment{Kind: "wait", Node: -1, Task: -1, Start: m.Finish, End: cursor})
		cursor, cur = m.Finish, m
	}

	sort.Slice(segs, func(i, j int) bool { return segs[i].Start < segs[j].Start })
	if err := validatePath(segs, makespan); err != nil {
		return nil, err
	}
	return segs, nil
}

// refineReduce splits the binding interval [lo, hi] of reduce task r by its
// phase spans: the innermost phase covering each instant labels it (merge
// passes nest inside shuffle ingest on pipelined engines), and instants
// outside any phase fall back to the task-level "reduce" label.
func refineReduce(r metrics.Span, phases []metrics.Span, lo, hi sim.Time, emit func(Segment)) {
	if hi <= lo {
		return
	}
	// Elementary interval boundaries.
	cuts := []sim.Time{lo, hi}
	for _, p := range phases {
		if p.Finish <= lo || p.Start >= hi {
			continue
		}
		if p.Start > lo {
			cuts = append(cuts, p.Start)
		}
		if p.Finish < hi {
			cuts = append(cuts, p.Finish)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	// Priority when phases overlap: merge (innermost, a blocking pass)
	// over the final reduce scan over shuffle ingest.
	prio := func(kind string) int {
		switch kind {
		case engine.SpanMerge:
			return 3
		case engine.SpanReduce:
			return 2
		case engine.SpanShuffle:
			return 1
		}
		return 0
	}
	var prev *Segment
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		kind, best := "reduce", 0
		for _, p := range phases {
			if p.Start <= a && p.Finish >= b && prio(p.Name) > best {
				kind, best = p.Name, prio(p.Name)
			}
		}
		if prev != nil && prev.Kind == kind && prev.End == a {
			prev.End = b
			continue
		}
		if prev != nil {
			emit(*prev)
		}
		prev = &Segment{Kind: kind, Node: r.Node, Task: r.Task, Attempt: r.Attempt, Start: a, End: b}
	}
	if prev != nil {
		emit(*prev)
	}
}

// validatePath asserts the connectivity contract: segments tile [0,
// makespan] with no gaps, no overlaps, and durations summing exactly to the
// makespan.
func validatePath(segs []Segment, makespan sim.Duration) error {
	if len(segs) == 0 {
		return fmt.Errorf("profile: empty critical path")
	}
	if segs[0].Start != 0 {
		return fmt.Errorf("profile: critical path starts at %s, not 0", segs[0].Start)
	}
	var sum sim.Duration
	for i, s := range segs {
		if s.End <= s.Start {
			return fmt.Errorf("profile: empty path segment %s [%s, %s]", s.Kind, s.Start, s.End)
		}
		if i > 0 && s.Start != segs[i-1].End {
			return fmt.Errorf("profile: critical path disconnected: %s ends %s, %s starts %s",
				segs[i-1].Kind, segs[i-1].End, s.Kind, s.Start)
		}
		sum += s.Duration()
	}
	if last := segs[len(segs)-1].End; sim.Duration(last) != makespan {
		return fmt.Errorf("profile: critical path ends at %s, makespan is %s", last, makespan)
	}
	if sum != makespan {
		return fmt.Errorf("profile: critical path sums to %s, makespan is %s", sum, makespan)
	}
	return nil
}

// pathComposition aggregates segment time by kind in canonical order.
func pathComposition(segs []Segment, makespan sim.Duration) []KindShare {
	total := make(map[string]sim.Duration)
	for _, s := range segs {
		total[s.Kind] += s.Duration()
	}
	out := make([]KindShare, 0, len(pathKinds))
	for _, k := range pathKinds {
		if t, ok := total[k]; ok {
			out = append(out, KindShare{Kind: k, Time: t, Share: float64(t) / float64(makespan)})
		}
	}
	return out
}
