// Package trace is the structured run-tracing layer: a deterministic,
// virtual-time event log every engine feeds through a Sink threaded into
// engine.Runtime. A trace attributes every event to a node, task, attempt,
// and engine, with a typed key/value payload — the per-task drill-down
// behind the paper's Fig. 2/3 task timelines and the per-stage accounting
// that systems like i2MapReduce and M3R use to justify their wins. Task and
// phase spans are recorded once, in metrics.Timeline, by engine.Runtime's
// Begin and End, which also emit their start and end events here; the other
// events are instants (spills, transfers, early answers, faults) that
// metrics.Counters only totals. The log exports to Chrome trace-event JSON
// (loadable in ui.perfetto.dev) and to a plain-text Gantt chart for
// terminals.
//
// Determinism: events carry only virtual time and values derived from the
// simulation, are appended in simulation order (exactly one process runs at
// any instant), and the exporters iterate in recorded order with no map
// traversal — so the same spec and seed produce byte-identical traces.
package trace

import (
	"strconv"

	"onepass/internal/sim"
)

// Type classifies an event. Start/End pairs become spans in the exporters;
// everything else renders as an instant.
type Type string

// Event types. TaskStart/TaskFinish bracket whole tasks, PhaseStart/PhaseEnd
// bracket stages inside a task (shuffle, merge, finalize); the rest are
// engine internals the cluster-aggregate metrics cannot see.
const (
	TaskStart  Type = "task-start"
	TaskFinish Type = "task-finish"
	PhaseStart Type = "phase-start"
	PhaseEnd   Type = "phase-end"
	// Spill is intermediate data forced to disk: reducer spill runs,
	// hash-bucket flushes, HOP's backpressure stashes, push-shuffle
	// leftovers.
	Spill Type = "spill"
	// MergePass is one pass of blocking post-shuffle work: a sort-merge
	// multi-pass step or an external-hash bucket resolution.
	MergePass Type = "merge-pass"
	// ShuffleTransfer is one map→reduce data movement (push or pull).
	ShuffleTransfer Type = "shuffle-transfer"
	// CombineFlush is a map-side combiner table flushing its states.
	CombineFlush Type = "combine-flush"
	// HotKeyEvict is the hot-key engine shedding cold states to disk.
	HotKeyEvict Type = "hotkey-evict"
	// EarlyAnswer is output produced before job completion: HOP snapshots,
	// hot-key approximate emissions, threshold-query emits.
	EarlyAnswer Type = "early-answer"
	// OutputWrite is the synchronous map-output persistence (§III.B.2).
	OutputWrite Type = "output-write"
	// FirstOutput marks the job's first output pair — the incremental
	// latency metric.
	FirstOutput Type = "first-output"
	// Fault is an injected node failure, or the recovery work it triggers
	// (map re-execution).
	Fault Type = "fault"
)

// Span reports whether the type is a Start/End pair member, and whether it
// opens a span.
func (t Type) Span() (isSpan, opens bool) {
	switch t {
	case TaskStart, PhaseStart:
		return true, true
	case TaskFinish, PhaseEnd:
		return true, false
	}
	return false, false
}

// Arg is one ordered key/value payload entry. Values are either numeric or
// string; ordered slices (not maps) keep encoding deterministic.
type Arg struct {
	Key   string
	Str   string
	Num   float64
	IsStr bool
}

// Num returns a numeric argument.
func Num(key string, v float64) Arg { return Arg{Key: key, Num: v} }

// Str returns a string argument.
func Str(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// Event is one attributed occurrence in a run.
type Event struct {
	// At is the virtual instant of the event.
	At sim.Time
	// Type classifies it; Name labels it within the type (the span name for
	// Start/End pairs: "map", "reduce", "shuffle", "merge", ...).
	Type Type
	Name string
	// Engine is the engine that emitted it (stamped by engine.Runtime).
	Engine string
	// Node, Task, Attempt attribute the event; -1 means not applicable
	// (Attempt 0 means first/only attempt).
	Node    int
	Task    int
	Attempt int
	// Args is the ordered key/value payload.
	Args []Arg
}

// Sink receives events as they happen. Implementations need no locking: the
// simulator runs exactly one process at any instant, so emissions are
// serialized by construction.
type Sink interface {
	Emit(ev Event)
}

// Log is the standard Sink: an in-order event buffer with exporters, plus
// any counter tracks attached after the run (AddCounterTrack).
type Log struct {
	events   []Event
	counters []CounterTrack
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Emit appends one event.
func (l *Log) Emit(ev Event) { l.events = append(l.events, ev) }

// Events returns the recorded events in emission order.
func (l *Log) Events() []Event { return l.events }

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// trackOf derives the stable per-task track an event renders on: tasks get
// one track each (disambiguated by name so map task 3 and reduce task 3
// differ), node-scoped events share the node's own track.
func trackOf(ev Event) (id int64, label string) {
	switch {
	case ev.Task >= 0 && (ev.Name == "map" || spanRootIsMap(ev)):
		return 1_000_000 + int64(ev.Task), "map-" + pad(ev.Task, 4)
	case ev.Task >= 0:
		return 2_000_000 + int64(ev.Task), "reduce-" + pad(ev.Task, 4)
	default:
		return 0, "node"
	}
}

// spanRootIsMap reports whether the event belongs to the map side: map tasks
// and their internals (output writes, combine flushes, push transfers) carry
// map-task ids, which would collide with reducer ids on one track space.
func spanRootIsMap(ev Event) bool {
	switch ev.Type {
	case OutputWrite, CombineFlush:
		return true
	case ShuffleTransfer:
		// Pushes are emitted by the mapper (task = map task); pulls by the
		// reducer (task = reducer).
		for _, a := range ev.Args {
			if a.Key == "mode" {
				return a.Str == "push"
			}
		}
	case Spill:
		return ev.Name == "map-stash" || ev.Name == "leftover"
	}
	return false
}

func pad(n, width int) string {
	s := strconv.Itoa(n)
	for len(s) < width {
		s = "0" + s
	}
	return s
}
