// Package engine holds the runtime shared by every MapReduce engine:
// the job specification (map, reduce and an optional monoid, resolved by
// Fold into every engine's combiner and per-key state), the calibrated cost
// model that converts real work (records,
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

// ReduceFunc folds all values of one key into output pairs. MapReduce never
// promised a value order, and the engines here deliver different ones, so it
// must be a function of the value multiset: the same pairs out for any
// permutation of vals.
type ReduceFunc func(key []byte, vals [][]byte, emit Emit)

// Job is a complete MapReduce job specification.
type Job struct {
	Name      string
	InputPath string
	Reader    RecordReader
	Map       MapFunc
	// Reduce is the whole aggregation contract of a job that declares nothing
	// else: every engine groups a key's raw values and hands them over.
	Reduce ReduceFunc

	// Monoid optionally declares the reduce as a typed commutative aggregate
	// over the map-output value space (see kv.Monoid). Fold derives the rest
	// from it: every engine combines in-node before shuffle, the hash and
	// resident engines hold one element per key, and RunDelta preserves one
	// element per (block, key). A key's answer is its folded element, or what
	// the monoid's optional method
	//
	//	Final(key, elem []byte, emit Emit)
	//
	// emits from it. Reduce must still be set and must agree with the fold
	// byte for byte: it is the law the monoid is checked against, and what
	// runs when a caller strips the declaration (the differential checker's
	// monoid-off axis sets Monoid = nil on its own copy of the job).
	Monoid kv.Monoid

	// BinaryInput marks the input as the pre-parsed binary format, charged
	// at the cheap parse rate (§III.B.1's SequenceFile experiment).
	BinaryInput bool

	Reducers   int
	OutputPath string
	// DiscardOutput never encodes output payloads; their I/O is charged
	// from their sizes — sink mode for large benchmark runs.
	DiscardOutput bool
	// RetainOutput decodes the part files into Result.Output when the job
	// is done, for verification. A job may not set it with DiscardOutput:
	// discarded output has no bytes to decode.
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

	// EmitWhen, when set, asks incremental engines to emit a key's current
	// answer as soon as the predicate becomes true of its folded element —
	// the §IV "output a group as soon as its count reaches the threshold"
	// example.
	EmitWhen func(key, state []byte) bool

	// Progress, when set, receives task-completion callbacks ("map" /
	// "reduce", done, total) — the progress reporter of the paper's Fig. 5
	// system-utilities column.
	Progress func(phase string, done, total int)

	// Fresh, when set, returns an independently-constructed copy of this job
	// whose user functions (Reader, Map, Reduce, Monoid) share no
	// scratch state with any other copy. Parallel intra-run execution uses it
	// to give every pool worker its own function instances — each worker
	// calls it once, from its own goroutine, so it must be safe to call
	// concurrently; without it, a job's data work runs inline on the event
	// loop instead of on the worker pool, since its user functions might keep
	// scratch buffers.
	Fresh func() Job

	// fold is set only on a pool worker's clone: the Fold resolved once for
	// that worker (see Runtime.StartJobWork).
	fold *Fold
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
	case j.Reduce == nil:
		return fmt.Errorf("engine: job %q needs a reduce function", j.Name)
	case j.Reducers <= 0:
		return fmt.Errorf("engine: job %q needs a positive reducer count", j.Name)
	case j.RetainOutput && j.DiscardOutput:
		return fmt.Errorf("engine: job %q both retains and discards its output", j.Name)
	}
	return nil
}

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
