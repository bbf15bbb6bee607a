// Package profile is the deterministic post-run analyzer: it consumes a
// run's Result — the task and phase spans its runtime recorded, the sampled
// series — plus the trace log's shuffle transfers, and answers the paper's
// central question — where did the makespan go — with checkable arithmetic
// instead of eyeballing a Gantt chart.
//
// Three decompositions, each summing exactly to the makespan:
//
//   - cause attribution: every virtual nanosecond assigned to cpu, iowait,
//     disk-queue, network, barrier-wait, or scheduler-idle (integer tiling
//     over the sampled series, asserted to tile exactly);
//   - critical path: the chain of map→shuffle→merge→reduce spans (plus
//     explicit wait/startup/finalize gaps) that bounds the run, contiguous
//     over [0, makespan], with slack figures for every span not on it;
//   - per-node utilization: busy/iowait/idle per node, same tiling.
//
// Everything is a pure function of the spans, the trace and the sampled
// series, which are themselves byte-deterministic across intra-run
// parallelism widths — so profiles are golden-testable the same way traces
// are.
package profile

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"onepass/internal/engine"
	"onepass/internal/metrics"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// PhaseStats summarizes the duration distribution of one span population
// (all map tasks, all shuffle phases, ...) through a mergeable histogram.
type PhaseStats struct {
	// Scope is "task" or "phase"; Name is the span name within it.
	Scope string       `json:"scope"`
	Name  string       `json:"name"`
	Count int          `json:"count"`
	Total sim.Duration `json:"total"`
	// Skew is max/mean duration — 1.0 means perfectly even, the paper's
	// straggler signal when it grows.
	Skew float64 `json:"skew"`
	// Hist is the duration histogram (nanoseconds); quantiles are exact for
	// small counts and within 1/32 otherwise.
	Hist *metrics.Histogram `json:"hist"`
}

// SlackEntry is how much longer one task span could have run without
// extending the run: distance to the map barrier for maps, to the last task
// end for reduces. Zero slack means the span is on the critical path's
// binding frontier.
type SlackEntry struct {
	Kind    string       `json:"kind"`
	Node    int          `json:"node"`
	Task    int          `json:"task"`
	Attempt int          `json:"attempt,omitempty"`
	Slack   sim.Duration `json:"slack"`
}

// PartitionBytes is one reduce partition's shuffled volume.
type PartitionBytes struct {
	Partition int   `json:"partition"`
	Bytes     int64 `json:"bytes"`
}

// ShuffleStats summarizes shuffle volume and its balance across partitions.
type ShuffleStats struct {
	Transfers  int   `json:"transfers"`
	TotalBytes int64 `json:"totalBytes"`
	// Partitions lists per-partition bytes in partition order.
	Partitions []PartitionBytes `json:"partitions,omitempty"`
	// MaxPartition is the hottest partition; Imbalance is its bytes over
	// the mean (1.0 = perfectly balanced hash).
	MaxPartition int     `json:"maxPartition"`
	MaxBytes     int64   `json:"maxBytes"`
	Imbalance    float64 `json:"imbalance"`
}

// RunProfile is the analyzer's complete output. It serializes
// deterministically: fixed-order slices, no maps, histograms with sorted
// bucket encoding.
type RunProfile struct {
	Job      string       `json:"job"`
	Engine   string       `json:"engine"`
	Makespan sim.Duration `json:"makespan"`

	// Attribution assigns every nanosecond of the makespan to a cause;
	// times sum exactly to Makespan.
	Attribution []Share `json:"attribution"`

	// CriticalPath tiles [0, Makespan] with the binding chain;
	// PathComposition aggregates it by segment kind.
	CriticalPath    []Segment   `json:"criticalPath"`
	PathComposition []KindShare `json:"pathComposition"`

	// Phases holds duration/skew statistics per span population in fixed
	// order (map/reduce tasks, then shuffle/merge/reduce phases).
	Phases []PhaseStats `json:"phases"`

	// TopSlack lists the task spans with the most slack (descending) —
	// the spans that could tolerate the most slowdown for free.
	TopSlack []SlackEntry `json:"topSlack,omitempty"`

	Shuffle ShuffleStats `json:"shuffle"`

	// Nodes is the per-node busy/iowait/idle split; each sums to Makespan.
	Nodes []NodeUtil `json:"nodes"`
}

// MarshalIndentJSON renders the profile as stable indented JSON — the bytes
// golden files and the cross-parallelism identity tests compare.
func (rp *RunProfile) MarshalIndentJSON() ([]byte, error) {
	b, err := json.MarshalIndent(rp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// topSlackN is how many high-slack spans the profile retains.
const topSlackN = 5

// Compute analyzes one completed run: its spans come from res.Timeline, its
// shuffle statistics from log. It fails loudly rather than producing a
// subtly wrong report: a span the runtime had to force-close, a zero-length
// or negative span, an attribution that does not tile the makespan, or a
// disconnected critical path are all hard errors. The run must be a single
// job starting at virtual time zero (runjob and the experiment driver both
// run jobs on a fresh cluster, so this holds for every profiling entry
// point).
func Compute(log *trace.Log, res *engine.Result) (*RunProfile, error) {
	if log == nil || res == nil {
		return nil, fmt.Errorf("profile: need both a trace log and a result")
	}
	if res.Makespan <= 0 {
		return nil, fmt.Errorf("profile: non-positive makespan %s", res.Makespan)
	}
	spans, err := closedSpans(res)
	if err != nil {
		return nil, err
	}

	rp := &RunProfile{Job: res.Job, Engine: res.Engine, Makespan: res.Makespan}
	if rp.Attribution, err = attribute(res, spans, res.Makespan); err != nil {
		return nil, err
	}
	if rp.CriticalPath, err = criticalPath(spans, res.Makespan); err != nil {
		return nil, err
	}
	rp.PathComposition = pathComposition(rp.CriticalPath, res.Makespan)
	rp.Phases = phaseStats(spans)
	rp.TopSlack = topSlack(spans)
	rp.Shuffle = shuffleStats(log.Events())
	if rp.Nodes, err = nodeUtilization(res.PerNode, res.Makespan); err != nil {
		return nil, err
	}
	return rp, nil
}

// closedSpans returns the run's recorded spans, refusing a timeline the
// analysis cannot trust: one with a span the runtime force-closed at the end
// of the run (a Begin without its End), or with zero-length or negative
// spans. Every analysis below is independent of the spans' order.
func closedSpans(res *engine.Result) ([]metrics.Span, error) {
	if res.Timeline == nil {
		return nil, fmt.Errorf("profile: result has no timeline")
	}
	if n := res.Counters.Get(engine.CtrTimelineForceClosed); n > 0 {
		return nil, fmt.Errorf("profile: %.0f span(s) left open and force-closed at the end of the run", n)
	}
	var spans []metrics.Span
	var issues []string
	for _, sp := range res.Timeline.Spans() {
		switch {
		case sp.Finish == sp.Start:
			issues = append(issues, "zero-length span: "+sp.String())
		case sp.Finish < sp.Start:
			issues = append(issues, "negative span: "+sp.String())
		}
		spans = append(spans, *sp)
	}
	if len(issues) > 0 {
		return nil, fmt.Errorf("profile: %d span defect(s):\n  %s", len(issues), strings.Join(issues, "\n  "))
	}
	return spans, nil
}

// phasePopulations is the fixed reporting order of span populations.
var phasePopulations = []struct {
	scope string
	phase bool
	name  string
}{
	{"task", false, engine.SpanMap},
	{"task", false, engine.SpanReduce},
	{"phase", true, engine.SpanShuffle},
	{"phase", true, engine.SpanMerge},
	{"phase", true, engine.SpanReduce},
}

func phaseStats(spans []metrics.Span) []PhaseStats {
	var out []PhaseStats
	for _, pop := range phasePopulations {
		h := metrics.NewHistogram()
		var total, max sim.Duration
		count := 0
		for _, sp := range spans {
			if sp.Phase != pop.phase || sp.Name != pop.name {
				continue
			}
			d := sp.Duration()
			h.Record(int64(d))
			total += d
			if d > max {
				max = d
			}
			count++
		}
		if count == 0 {
			continue
		}
		skew := 0.0
		if total > 0 {
			skew = float64(max) / (float64(total) / float64(count))
		}
		out = append(out, PhaseStats{Scope: pop.scope, Name: pop.name,
			Count: count, Total: total, Skew: skew, Hist: h})
	}
	return out
}

func topSlack(spans []metrics.Span) []SlackEntry {
	var lastMapEnd, lastTaskEnd sim.Time
	for _, sp := range spans {
		if sp.Phase {
			continue
		}
		if sp.Name == engine.SpanMap && sp.Finish > lastMapEnd {
			lastMapEnd = sp.Finish
		}
		if sp.Finish > lastTaskEnd {
			lastTaskEnd = sp.Finish
		}
	}
	var entries []SlackEntry
	for _, sp := range spans {
		if sp.Phase {
			continue
		}
		var slack sim.Duration
		switch sp.Name {
		case engine.SpanMap:
			slack = lastMapEnd.Sub(sp.Finish)
		case engine.SpanReduce:
			slack = lastTaskEnd.Sub(sp.Finish)
		default:
			continue
		}
		entries = append(entries, SlackEntry{Kind: sp.Name, Node: sp.Node,
			Task: sp.Task, Attempt: sp.Attempt, Slack: slack})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Slack != b.Slack {
			return a.Slack > b.Slack
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Attempt < b.Attempt
	})
	if len(entries) > topSlackN {
		entries = entries[:topSlackN]
	}
	return entries
}

// shuffleStats folds every shuffle-transfer instant into per-partition
// volumes. Pull transfers carry the partition as the event task; push
// transfers carry the destination reducer in the "reducer" argument.
func shuffleStats(events []trace.Event) ShuffleStats {
	perPart := make(map[int]int64)
	st := ShuffleStats{MaxPartition: -1}
	for _, ev := range events {
		if ev.Type != trace.ShuffleTransfer {
			continue
		}
		part := ev.Task
		var bytes int64
		for _, a := range ev.Args {
			switch a.Key {
			case "reducer":
				part = int(a.Num)
			case "bytes":
				bytes = int64(a.Num)
			}
		}
		st.Transfers++
		st.TotalBytes += bytes
		perPart[part] += bytes
	}
	if len(perPart) == 0 {
		return st
	}
	parts := make([]int, 0, len(perPart))
	for p := range perPart {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	var sum int64
	for _, p := range parts {
		b := perPart[p]
		st.Partitions = append(st.Partitions, PartitionBytes{Partition: p, Bytes: b})
		sum += b
		if b > st.MaxBytes || (b == st.MaxBytes && st.MaxPartition < 0) {
			st.MaxBytes, st.MaxPartition = b, p
		}
	}
	if mean := float64(sum) / float64(len(parts)); mean > 0 {
		st.Imbalance = float64(st.MaxBytes) / mean
	}
	return st
}
