package metrics

import (
	"encoding/json"
	"fmt"
	"iter"
	"strings"

	"onepass/internal/sim"
)

// Span is one recorded interval of a run: a whole task attempt (a map or a
// reduce task) or a phase inside a reduce task (shuffle, merge, reduce).
// engine.Runtime opens and closes every span; the timeline views below, the
// profiler and the trace's in-flight counter tracks all read this record.
type Span struct {
	// Name is the task kind ("map", "reduce") or the phase name.
	Name string `json:"name"`
	// Phase marks a phase span; false is a whole-task span. "reduce" names
	// both a reduce task and its final phase.
	Phase bool `json:"phase,omitempty"`
	// Node, Task and Attempt attribute the span: the node it ran on, the map
	// task (block index) or reducer, and the attempt (0 is the first).
	Node    int `json:"node"`
	Task    int `json:"task"`
	Attempt int `json:"attempt,omitempty"`

	Start  sim.Time `json:"start"`
	Finish sim.Time `json:"finish"`
	open   bool
}

// End closes the span at time t.
func (s *Span) End(t sim.Time) {
	if !s.open {
		panic("metrics: span ended twice")
	}
	s.Finish = t
	s.open = false
}

// Duration returns the span length.
func (s Span) Duration() sim.Duration { return s.Finish.Sub(s.Start) }

func (s Span) String() string {
	scope := "task"
	if s.Phase {
		scope = "phase"
	}
	return fmt.Sprintf("%s %s n%d task %d attempt %d [%s, %s]",
		s.Name, scope, s.Node, s.Task, s.Attempt, s.Start, s.Finish)
}

// Timeline records a run's spans and reproduces the paper's Fig. 2(a)/Fig. 3
// "number of tasks per operation over time" plots.
type Timeline struct {
	spans []*Span
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Begin records s as a span open from s.Start. Call End on the returned span.
func (tl *Timeline) Begin(s Span) *Span {
	sp := &s
	sp.open = true
	tl.spans = append(tl.spans, sp)
	return sp
}

// Spans returns all recorded spans, in the order they were opened.
func (tl *Timeline) Spans() []*Span { return tl.spans }

// CheckClosed returns an error naming any span still open. An un-End()ed
// span reports Finish == 0 and silently corrupts duration math, so result
// rendering should check (or CloseOpenAt) before trusting the timeline.
func (tl *Timeline) CheckClosed() error {
	var open []string
	for _, s := range tl.spans {
		if s.open {
			open = append(open, fmt.Sprintf("%s@%v", s.Name, s.Start))
		}
	}
	if len(open) == 0 {
		return nil
	}
	return fmt.Errorf("metrics: %d open span(s): %s", len(open), strings.Join(open, ", "))
}

// CloseOpenAt force-closes every open span at time t and returns how many it
// closed — the close-at helper for result finalization, where a leaked span
// should clamp to the horizon rather than report Finish == 0.
func (tl *Timeline) CloseOpenAt(t sim.Time) int {
	n := 0
	for _, s := range tl.spans {
		if s.open {
			s.End(t)
			n++
		}
	}
	return n
}

// chart yields the spans the Fig. 2(a) views draw — Phases, Counts,
// PhaseWindow, CountByPhase and Render: map tasks and the phases inside
// reduce tasks. A reduce task is drawn as its shuffle, merge and reduce
// phases, so its own span appears only in Spans().
func (tl *Timeline) chart() iter.Seq[*Span] {
	return func(yield func(*Span) bool) {
		for _, s := range tl.spans {
			if (s.Phase || s.Name != "reduce") && !yield(s) {
				return
			}
		}
	}
}

// Phases returns the distinct charted span names in first-seen order.
func (tl *Timeline) Phases() []string {
	seen := make(map[string]bool)
	var out []string
	for s := range tl.chart() {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	return out
}

// Counts returns, for each phase, a series of the number of spans active in
// each bucket. end is the overall horizon (usually the job makespan).
func (tl *Timeline) Counts(bucket sim.Duration, end sim.Time) map[string]*Series {
	out := make(map[string]*Series)
	for _, phase := range tl.Phases() {
		out[phase] = NewSeries(phase, "tasks", bucket)
	}
	nBuckets := int(int64(end)/int64(bucket)) + 1
	for s := range tl.chart() {
		series := out[s.Name]
		e := s.Finish
		if s.open {
			e = end
		}
		first := int(int64(s.Start) / int64(bucket))
		last := int(int64(e) / int64(bucket))
		if e > s.Start && int64(e)%int64(bucket) == 0 {
			last-- // span ending exactly on a boundary is not active in the next bucket
		}
		if last >= nBuckets {
			last = nBuckets - 1
		}
		for b := first; b <= last; b++ {
			series.Add(sim.Time(int64(b)*int64(bucket)), 1)
		}
	}
	// Pad all series to the full horizon so they align.
	for _, s := range out {
		s.Set(sim.Time(int64(nBuckets-1)*int64(bucket)), s.At(nBuckets-1))
	}
	return out
}

// PhaseWindow returns the earliest start and latest end across charted spans
// named phase, and whether any such span exists.
func (tl *Timeline) PhaseWindow(phase string) (start, end sim.Time, ok bool) {
	for s := range tl.chart() {
		if s.Name != phase {
			continue
		}
		if !ok || s.Start < start {
			start = s.Start
		}
		if s.Finish > end {
			end = s.Finish
		}
		ok = true
	}
	return start, end, ok
}

// CountByPhase returns the number of charted spans per name.
func (tl *Timeline) CountByPhase() map[string]int {
	out := make(map[string]int)
	for s := range tl.chart() {
		out[s.Name]++
	}
	return out
}

// Render draws the per-phase task-count sparklines, one row per phase,
// ordered by first appearance — a textual Fig. 2(a).
func (tl *Timeline) Render(bucket sim.Duration, end sim.Time, maxWidth int) string {
	counts := tl.Counts(bucket, end)
	var b strings.Builder
	phases := tl.Phases()
	width := 0
	for _, p := range phases {
		if counts[p].Len() > width {
			width = counts[p].Len()
		}
	}
	factor := 1
	if maxWidth > 0 && width > maxWidth {
		factor = (width + maxWidth - 1) / maxWidth
	}
	nameW := 0
	for _, p := range phases {
		if len(p) > nameW {
			nameW = len(p)
		}
	}
	for _, p := range phases {
		s := counts[p].Downsample(factor)
		fmt.Fprintf(&b, "%-*s |%s| peak=%d\n", nameW, p, s.Spark(), int(counts[p].Max()))
	}
	return b.String()
}

// MarshalJSON encodes the timeline as its span list, in recorded order.
// A Result's timeline is closed when it is printed: FinishResult closes
// every span first.
func (tl *Timeline) MarshalJSON() ([]byte, error) { return json.Marshal(tl.spans) }
