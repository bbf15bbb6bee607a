package profile_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"onepass"
	"onepass/internal/engine"
	"onepass/internal/metrics"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// referenceSpans is the former span extractor, kept as the oracle for the
// spans the runtime now records once: it reconstructs the closed spans of a
// trace by pairing start and end events, and reports every structural
// defect it finds — end events with no matching start, start events never
// closed, and zero-length or negative spans. Task spans pair on (name, task,
// attempt), re-executed attempts carrying a distinct attempt, and phase
// spans on (name, node, task): every engine emits phase spans from the
// single process owning that reducer. Spans come back in sortSpans order.
func referenceSpans(events []trace.Event) (spans []metrics.Span, issues []string) {
	type spanKey struct {
		phase   bool
		name    string
		node    int
		task    int
		attempt int
	}
	open := make(map[spanKey][]sim.Time)
	for _, ev := range events {
		isSpan, opens := ev.Type.Span()
		if !isSpan {
			continue
		}
		phase := ev.Type == trace.PhaseStart || ev.Type == trace.PhaseEnd
		k := spanKey{phase: phase, name: ev.Name, node: ev.Node, task: ev.Task, attempt: ev.Attempt}
		if opens {
			open[k] = append(open[k], ev.At)
			continue
		}
		stack := open[k]
		if len(stack) == 0 {
			issues = append(issues, fmt.Sprintf("orphaned end: %s %q n%d task %d attempt %d at %s",
				ev.Type, ev.Name, ev.Node, ev.Task, ev.Attempt, ev.At))
			continue
		}
		start := stack[len(stack)-1]
		open[k] = stack[:len(stack)-1]
		sp := metrics.Span{Name: ev.Name, Phase: phase, Node: ev.Node, Task: ev.Task,
			Attempt: ev.Attempt, Start: start, Finish: ev.At}
		if sp.Finish == sp.Start {
			issues = append(issues, "zero-length span: "+sp.String())
		}
		if sp.Finish < sp.Start {
			issues = append(issues, "negative span: "+sp.String())
		}
		spans = append(spans, sp)
	}
	// Unclosed spans, in deterministic key order.
	var leftover []spanKey
	for k, stack := range open {
		for range stack {
			leftover = append(leftover, k)
		}
	}
	sort.Slice(leftover, func(i, j int) bool {
		a, b := leftover[i], leftover[j]
		if a.phase != b.phase {
			return !a.phase
		}
		if a.name != b.name {
			return a.name < b.name
		}
		if a.node != b.node {
			return a.node < b.node
		}
		if a.task != b.task {
			return a.task < b.task
		}
		return a.attempt < b.attempt
	})
	for _, k := range leftover {
		scope := "task"
		if k.phase {
			scope = "phase"
		}
		issues = append(issues, fmt.Sprintf("unclosed %s span: %q n%d task %d attempt %d",
			scope, k.name, k.node, k.task, k.attempt))
	}
	sortSpans(spans)
	return spans, issues
}

// sortSpans orders spans by (Start, Finish, task before phase, Name, Node,
// Task, Attempt).
func sortSpans(spans []metrics.Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Finish != b.Finish {
			return a.Finish < b.Finish
		}
		if a.Phase != b.Phase {
			return !a.Phase
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		return a.Attempt < b.Attempt
	})
}

// TestReferencePairingFlagsDefects pins the oracle's defect classes, so the
// clean reference pairings TestRecordedSpansMatchTracePairs demands mean
// something.
func TestReferencePairingFlagsDefects(t *testing.T) {
	ev := func(typ trace.Type, name string, node, task int, at sim.Duration) trace.Event {
		return trace.Event{At: sim.Time(at), Type: typ, Name: name, Node: node, Task: task}
	}
	ms := sim.Millisecond
	events := []trace.Event{
		// Clean map span.
		ev(trace.TaskStart, "map", 0, 0, 1*ms),
		ev(trace.TaskFinish, "map", 0, 0, 5*ms),
		// Orphaned end: finish without start.
		ev(trace.TaskFinish, "map", 0, 7, 6*ms),
		// Zero-length span.
		ev(trace.PhaseStart, "shuffle", 1, 2, 8*ms),
		ev(trace.PhaseEnd, "shuffle", 1, 2, 8*ms),
		// Unclosed span.
		ev(trace.TaskStart, "reduce", 2, 3, 9*ms),
	}
	spans, issues := referenceSpans(events)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (clean map + zero-length shuffle)", len(spans))
	}
	if len(issues) != 3 {
		t.Fatalf("got %d issues, want 3: %v", len(issues), issues)
	}
	for i, want := range []string{"orphaned end", "zero-length span", "unclosed task span"} {
		if !strings.Contains(issues[i], want) {
			t.Errorf("issue %d = %q, want %q", i, issues[i], want)
		}
	}
}

// TestRecordedSpansMatchTracePairs is the oracle for the one span record:
// the spans a run's runtime recorded in its Timeline — what the profiler
// and the counter tracks read — must be exactly the spans the former
// extractor pairs out of the same run's trace, with no defect, on every
// engine, clean and through re-execution after a node failure, serial and
// pooled, and on the paths that open extra merges: HOP snapshots and
// hot-key approximate early answers.
func TestRecordedSpansMatchTracePairs(t *testing.T) {
	const input = 32 * 64 << 10 // 32 blocks, so node 1 has map outputs to lose
	fail, err := onepass.ParseFaults("fail@0.02s:n1")
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name string
		cfg  onepass.Config
		// ran proves the variant exercised what it is named for.
		ran func(*onepass.Result) bool
	}
	var variants []variant
	for _, e := range onepass.Engines() {
		for _, workers := range []int{1, 4} {
			clean := profCfg(e, workers)
			faulted := clean
			faulted.Faults = fail
			variants = append(variants,
				variant{name: fmt.Sprintf("%v/clean/p%d", e, workers), cfg: clean},
				variant{name: fmt.Sprintf("%v/fail/p%d", e, workers), cfg: faulted,
					ran: func(r *onepass.Result) bool { return r.Counters.Get(engine.CtrTasksReexecuted) > 0 }})
		}
	}
	snapshots := profCfg(onepass.MapReduceOnline, 4)
	approx := profCfg(onepass.HashHotKey, 4)
	approx.ApproximateEarly = true
	variants = append(variants,
		variant{name: "mapreduce-online/snapshots", cfg: snapshots,
			ran: func(r *onepass.Result) bool { return len(r.Snapshots) > 0 }},
		variant{name: "hash-hotkey/approximate-early", cfg: approx,
			ran: func(r *onepass.Result) bool { return len(r.Snapshots) > 0 }},
	)

	for _, v := range variants {
		w := onepass.Sessionization(clicks())
		tl := onepass.NewTraceLog()
		v.cfg.Trace = tl
		res, err := onepass.RunWorkload(v.cfg, w, input)
		if err != nil {
			t.Fatalf("%s: run: %v", v.name, err)
		}
		if v.ran != nil && !v.ran(res) {
			t.Fatalf("%s: the run did not exercise its variant — test is vacuous", v.name)
		}
		want, issues := referenceSpans(tl.Events())
		if len(issues) > 0 {
			t.Errorf("%s: reference pairing found %d defect(s): %v", v.name, len(issues), issues)
		}
		var got []metrics.Span
		for _, sp := range res.Timeline.Spans() {
			got = append(got, *sp)
		}
		sortSpans(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recorded spans (%d) differ from the trace's pairs (%d)", v.name, len(got), len(want))
		}
		if _, err := onepass.ComputeProfile(tl, res); err != nil {
			t.Errorf("%s: profile: %v", v.name, err)
		}
	}
}
