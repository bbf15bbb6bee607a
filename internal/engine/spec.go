// Package engine holds the runtime shared by every MapReduce engine:
// the job specification (map/combine/reduce plus the incremental aggregator
// contract), the calibrated cost model that converts real work (records,
// bytes, comparisons, hash operations) into virtual CPU time, slot-based
// task scheduling with data locality, the map-output registry behind both
// pull- and push-based shuffle, and result/metrics collection.
package engine

import (
	"fmt"

	"onepass/internal/kv"
	"onepass/internal/sim"
)

// Emit collects one output pair from a user function.
type Emit func(key, val []byte)

// RecordReader iterates the records of one raw input block.
type RecordReader func(block []byte, yield func(rec []byte))

// MapFunc transforms one input record into zero or more pairs.
type MapFunc func(rec []byte, emit Emit)

// ReduceFunc folds all values of one key into output pairs.
type ReduceFunc func(key []byte, vals [][]byte, emit Emit)

// CombineFunc performs partial aggregation over the values of one key,
// usually emitting a single pair under the same key. Nil when the analytic
// function has no useful combiner (e.g. sessionization).
type CombineFunc func(key []byte, vals [][]byte, emit Emit)

// Aggregator is the incremental-processing contract of the hash engines
// (§IV point 3): per-key state folded value-by-value as data arrives, with
// mergeable partials so map-side combining composes with reduce-side
// incremental update. States are plain byte strings so they can live in
// byte-array memory and spill to simulated disk unchanged.
type Aggregator interface {
	// Init returns the state for a key's first value.
	Init(val []byte) []byte
	// Update folds one more value into state, returning the new state
	// (which may reuse state's storage).
	Update(state, val []byte) []byte
	// Merge combines two partial states.
	Merge(a, b []byte) []byte
	// Final emits the key's result from its state.
	Final(key, state []byte, emit Emit)
}

// Job is a complete MapReduce job specification.
type Job struct {
	Name      string
	InputPath string
	Reader    RecordReader
	Map       MapFunc
	Combine   CombineFunc
	Reduce    ReduceFunc
	// Agg enables incremental evaluation on the hash engines. Optional;
	// when nil the hash engines fall back to value-list states.
	Agg Aggregator

	// Monoid declares the reduce as a typed commutative aggregate over the
	// map-output value space (see kv.Monoid): every engine then combines
	// in-node before shuffle (EffectiveCombine) and the hash and resident
	// engines fold partial states associatively (MonoidAgg). Reduce must
	// still be set — it is the law the monoid is checked against and the
	// fallback when Config.DisableMonoid strips this field. Mutually
	// exclusive with explicit Combine/Agg.
	Monoid kv.Monoid

	// BinaryInput marks the input as the pre-parsed binary format, charged
	// at the cheap parse rate (§III.B.1's SequenceFile experiment).
	BinaryInput bool

	Reducers   int
	OutputPath string
	// DiscardOutput drops output payloads (I/O still charged) — sink mode
	// for large benchmark runs.
	DiscardOutput bool
	// RetainOutput additionally keeps an in-memory copy of all output pairs
	// on the Result for verification. Mutually exclusive with DiscardOutput
	// having any effect on verification.
	RetainOutput bool

	Costs CostModel

	// MapSlotsPerNode and ReduceSlotsPerNode bound concurrent tasks per
	// node (Hadoop's slot model). Zero means the engine default (2 and 2).
	MapSlotsPerNode    int
	ReduceSlotsPerNode int

	// MemoryPerTask caps a task's in-memory buffers (map output buffer,
	// reducer merge buffer, hash-table budget). Zero = cluster default
	// (node memory / 4).
	MemoryPerTask int64

	// EmitThreshold, when set, asks incremental engines to emit a key's
	// current aggregate as soon as the predicate becomes true — the §IV
	// "output a group as soon as its count reaches the threshold" example.
	EmitWhen func(key, state []byte) bool

	// Progress, when set, receives task-completion callbacks ("map" /
	// "reduce", done, total) — the progress reporter of the paper's Fig. 5
	// system-utilities column.
	Progress func(phase string, done, total int)

	// OrderInsensitive declares that Reduce's output is independent of the
	// order of vals — a multiset function, not a sequence function (e.g. a
	// reducer that sorts its values before emitting). Monoid-declared jobs
	// are order-insensitive by law; this flag extends the same promise to
	// holistic reducers, which is what lets the incremental re-run path
	// regroup a key's preserved per-block value lists in block order rather
	// than in the original engine's arrival order.
	OrderInsensitive bool

	// Speculation enables speculative execution of straggling map tasks:
	// once the task queue drains, idle slots re-run the oldest in-flight
	// tasks and the first attempt to finish wins (Hadoop's backup tasks;
	// the improved strategy of [Zaharia et al., OSDI'08] is cited by the
	// paper's related work). Requires pull shuffle: duplicate attempts
	// commit idempotently through the map-output registry.
	Speculation bool

	// Fresh, when set, returns an independently-constructed copy of this job
	// whose user functions (Reader, Map, Combine, Reduce, Agg, Monoid) share no
	// scratch state with any other copy. Parallel intra-run execution uses it
	// to give every concurrently-running task its own function instances;
	// without it, tasks whose user functions might keep scratch buffers run
	// inline on the event loop instead of on the worker pool. Jobs whose
	// functions are stateless may leave it nil.
	Fresh func() Job
}

// Validate checks the spec for the common mistakes.
func (j *Job) Validate() error {
	switch {
	case j.Name == "":
		return fmt.Errorf("engine: job needs a name")
	case j.InputPath == "":
		return fmt.Errorf("engine: job %q needs an input path", j.Name)
	case j.Reader == nil:
		return fmt.Errorf("engine: job %q needs a record reader", j.Name)
	case j.Map == nil:
		return fmt.Errorf("engine: job %q needs a map function", j.Name)
	case j.Reduce == nil && j.Agg == nil:
		return fmt.Errorf("engine: job %q needs a reduce function or aggregator", j.Name)
	case j.Monoid != nil && j.Reduce == nil:
		return fmt.Errorf("engine: job %q declares a monoid without the reduce it abbreviates", j.Name)
	case j.Monoid != nil && (j.Combine != nil || j.Agg != nil):
		return fmt.Errorf("engine: job %q mixes a monoid with an explicit combiner/aggregator", j.Name)
	case j.Reducers <= 0:
		return fmt.Errorf("engine: job %q needs a positive reducer count", j.Name)
	}
	return nil
}

// EffectiveCombine resolves the job's map-side combiner: the explicit
// Combine when set, a combiner derived from the declared Monoid otherwise,
// nil when the job has neither. The derived combiner keeps reusable scratch,
// so call this once per task attempt on the TaskJob clone, never on a job
// shared across concurrent attempts.
func (j *Job) EffectiveCombine() CombineFunc {
	if j.Combine != nil {
		return j.Combine
	}
	if j.Monoid != nil {
		return MonoidCombiner(j.Monoid)
	}
	return nil
}

// DeclaredAgg resolves the job's incremental per-key state: the explicit Agg
// when set, the one derived from a declared Monoid otherwise, nil for a
// holistic job (raw value lists, Reduce at finalize). The hash and resident
// engines fold map- and reduce-side through it.
func (j *Job) DeclaredAgg() Aggregator {
	if j.Agg != nil {
		return j.Agg
	}
	if j.Monoid != nil {
		return MonoidAgg{M: j.Monoid}
	}
	return nil
}

// HasCombiner reports whether EffectiveCombine would return a combiner,
// without constructing one — for cost-charging conditions outside the task
// closure.
func (j *Job) HasCombiner() bool { return j.Combine != nil || j.Monoid != nil }

// Phase names used in CPU accounting and timelines, shared across engines
// so Table II and the figures can compare like with like.
const (
	PhaseParse   = "parse"
	PhaseMapFn   = "map-fn"
	PhaseSort    = "sort"
	PhaseCombine = "combine"
	PhaseMerge   = "merge"
	PhaseReduce  = "reduce-fn"
	PhaseHash    = "hash"
	PhaseUpdate  = "state-update"
	// PhaseFramework is runtime overhead outside user code and group-by
	// work (excluded from Table II's map-function/sort split, as in the
	// paper's profiling).
	PhaseFramework = "framework"
)

// Timeline span names (the four operations of the paper's Fig. 2(a)).
const (
	SpanMap     = "map"
	SpanShuffle = "shuffle"
	SpanMerge   = "merge"
	SpanReduce  = "reduce"
)

// Snapshot is one early answer emitted before job completion: HOP's
// periodic snapshots and the hash engines' incremental/approximate emits.
type Snapshot struct {
	At       sim.Time
	Fraction float64 // input fraction represented, if known (HOP snapshots)
	Pairs    int     // number of pairs in this snapshot
}
