package engine

import (
	"fmt"
	"sort"
	"strings"

	"onepass/internal/cluster"
	"onepass/internal/sim"
)

// AuditFailure is one violated runtime invariant, with enough node/task
// attribution to localize the bug that broke it.
type AuditFailure struct {
	// Invariant names the check that fired, e.g. "shuffle-conservation".
	Invariant string
	// Where attributes the failure to a node, task, or resource.
	Where string
	// Detail states the two sides that should have agreed.
	Detail string
}

func (f AuditFailure) String() string {
	return fmt.Sprintf("%s [%s]: %s", f.Invariant, f.Where, f.Detail)
}

// auditChunkKey identifies one unit of shuffled map output: a pushed chunk
// (seq >= 0) or a whole pulled partition / staged leftover (seq == -1).
type auditChunkKey struct {
	task, part, seq int
}

// Audit is the end-of-run invariant ledger. A Runtime carries a nil *Audit
// by default — every emission site is guarded by Runtime.Auditing(), so the
// disarmed path costs one pointer compare, mirroring trace.Sink. When armed
// it records byte-conservation ledgers (map output vs shuffle delivery net
// of combine savings, spill writes vs read-backs) and task accounting while
// the run executes, then Finish cross-checks them and sweeps the simulation
// for leaks (held resources, queued disk requests, stranded scratch files).
//
// All bookkeeping happens outside virtual time and never touches counters,
// series, or the event heap, so audited runs are byte-identical to
// unaudited ones — the determinism oracle (PR 1's cache byte-identity,
// PR 3's checksum equivalence) is unaffected by arming audits.
//
// No locking: the simulator runs exactly one process at a time, and each
// run owns a private Audit.
type Audit struct {
	// Shuffle ledger: bytes handed to the shuffle per chunk at the point of
	// actual transfer, vs bytes a reducer accepted. produced is first-wins
	// with an equality assertion (re-records come from re-executed attempts,
	// which must be deterministic); ingested accumulates, since
	// duplicate-delivery bugs must surface as imbalance.
	produced map[auditChunkKey]int64
	prodNode map[auditChunkKey]int
	ingested map[auditChunkKey]int64

	// Combine ledger, per map task: raw pair bytes out of the map function,
	// bytes the combiner elided, and final pair bytes entering the shuffle.
	rawPairs     map[int]int64
	finalPairs   map[int]int64
	combineSaved map[int]int64

	// Spill ledger, per node: intermediate bytes written to local runs,
	// stashes, or hash buckets, and bytes read back out of them.
	spillWritten map[int]int64
	spillRead    map[int]int64

	// Task accounting, per kind ("map", "reduce"): a task runs once, so
	// every attempt launched must commit.
	launched  map[string]int
	completed map[string]int

	// SharedRuntime marks the runtime as one of several multiplexed over a
	// shared environment (internal/service): Finish then skips the
	// simulation-wide leak sweep, whose resources, live processes, and
	// scratch files legitimately belong to concurrently running jobs. The
	// service runs one CheckSim sweep itself after the whole environment
	// drains.
	SharedRuntime bool

	failures []AuditFailure
}

// NewAudit returns an armed, empty ledger.
func NewAudit() *Audit {
	return &Audit{
		produced:     make(map[auditChunkKey]int64),
		prodNode:     make(map[auditChunkKey]int),
		ingested:     make(map[auditChunkKey]int64),
		rawPairs:     make(map[int]int64),
		finalPairs:   make(map[int]int64),
		combineSaved: make(map[int]int64),
		spillWritten: make(map[int]int64),
		spillRead:    make(map[int]int64),
		launched:     make(map[string]int),
		completed:    make(map[string]int),
	}
}

func (a *Audit) fail(invariant, where, detail string) {
	a.failures = append(a.failures, AuditFailure{Invariant: invariant, Where: where, Detail: detail})
}

// Fail records an externally-detected invariant violation — the hook the
// service-level fairness checks (fair admission order, starvation,
// slot conservation, weighted slot shares) report through, so scheduler
// violations surface exactly like engine conservation failures.
func (a *Audit) Fail(invariant, where, detail string) { a.fail(invariant, where, detail) }

// Failures returns the failures accumulated so far without running the
// end-of-run checks (Finish runs those).
func (a *Audit) Failures() []AuditFailure { return a.failures }

// recordOnce implements first-wins-with-equality for per-task byte figures:
// a re-executed attempt at the same task must reproduce the first attempt's
// bytes exactly or the engine is nondeterministic.
func (a *Audit) recordOnce(m map[int]int64, invariant, what string, task int, n int64) {
	if prev, ok := m[task]; ok {
		if prev != n {
			a.fail(invariant, fmt.Sprintf("map task %d", task),
				fmt.Sprintf("%s differs across attempts: %d then %d bytes (nondeterministic attempt)", what, prev, n))
		}
		return
	}
	m[task] = n
}

// MapRawPairs records the pair bytes emitted by the map function for task,
// before any combining.
func (a *Audit) MapRawPairs(task int, bytes int64) {
	a.recordOnce(a.rawPairs, "combine-conservation", "raw map-output pair bytes", task, bytes)
}

// MapFinalPairs records the pair bytes leaving the map side for task after
// combining (equal to the raw bytes when the job has no combiner).
func (a *Audit) MapFinalPairs(task int, bytes int64) {
	a.recordOnce(a.finalPairs, "combine-conservation", "final map-output pair bytes", task, bytes)
}

// CombineSaved records the pair bytes the combiner elided for task.
func (a *Audit) CombineSaved(task int, bytes int64) {
	a.recordOnce(a.combineSaved, "combine-conservation", "combiner-elided pair bytes", task, bytes)
}

// ShuffleProduced records bytes actually transferred into the shuffle from
// node, as one chunk (seq >= 0) or a whole partition/leftover (seq == -1).
func (a *Audit) ShuffleProduced(node, task, part, seq int, n int64) {
	k := auditChunkKey{task: task, part: part, seq: seq}
	if prev, ok := a.produced[k]; ok {
		if prev != n {
			a.fail("shuffle-conservation", a.where(k),
				fmt.Sprintf("produced size differs across attempts: %d then %d bytes (nondeterministic attempt)", prev, n))
		}
		return
	}
	a.produced[k] = n
	a.prodNode[k] = node
}

// ShuffleIngested records bytes a reducer accepted for the chunk.
func (a *Audit) ShuffleIngested(task, part, seq int, n int64) {
	a.ingested[auditChunkKey{task: task, part: part, seq: seq}] += n
}

// SpillWritten records intermediate bytes written to node's local disk.
func (a *Audit) SpillWritten(node int, n int64) { a.spillWritten[node] += n }

// SpillRead records intermediate bytes read back on node.
func (a *Audit) SpillRead(node int, n int64) { a.spillRead[node] += n }

// TaskLaunched records one task attempt of the given kind starting.
func (a *Audit) TaskLaunched(kind string) { a.launched[kind]++ }

// TaskCompleted records the attempt that committed the task's output.
func (a *Audit) TaskCompleted(kind string) { a.completed[kind]++ }

func (a *Audit) where(k auditChunkKey) string {
	unit := "part"
	if k.seq >= 0 {
		unit = fmt.Sprintf("chunk %d of part", k.seq)
	}
	if n, ok := a.prodNode[k]; ok {
		return fmt.Sprintf("map task %d, %s %d (produced on node %d)", k.task, unit, k.part, n)
	}
	return fmt.Sprintf("map task %d, %s %d", k.task, unit, k.part)
}

// Finish runs every end-of-run check and returns the accumulated failures
// in deterministic order. rt supplies the simulation state for leak checks;
// ledger-only callers (unit tests) may pass nil.
func (a *Audit) Finish(rt *Runtime) []AuditFailure {
	a.checkConservation()
	if rt != nil && !a.SharedRuntime {
		a.CheckSim(rt.Env, rt.Cluster)
	}
	return a.failures
}

// checkConservation cross-checks the byte ledgers and task accounting.
func (a *Audit) checkConservation() {
	// Shuffle: compare the union of chunk keys, treating a missing side as
	// zero — an empty partition may be produced but never recorded as
	// ingested (zero-size fetches skip the transfer) and vice versa.
	keys := make([]auditChunkKey, 0, len(a.produced)+len(a.ingested))
	for k := range a.produced {
		keys = append(keys, k)
	}
	for k := range a.ingested {
		if _, ok := a.produced[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].task != keys[j].task {
			return keys[i].task < keys[j].task
		}
		if keys[i].part != keys[j].part {
			return keys[i].part < keys[j].part
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		if p, in := a.produced[k], a.ingested[k]; p != in {
			a.fail("shuffle-conservation", a.where(k),
				fmt.Sprintf("produced %d bytes but reducers ingested %d", p, in))
		}
	}

	// Combine: raw map output must equal combiner savings plus final output,
	// per task.
	tasks := make([]int, 0, len(a.rawPairs))
	for t := range a.rawPairs {
		tasks = append(tasks, t)
	}
	for t := range a.finalPairs {
		if _, ok := a.rawPairs[t]; !ok {
			tasks = append(tasks, t)
		}
	}
	sort.Ints(tasks)
	for _, t := range tasks {
		raw, saved, final := a.rawPairs[t], a.combineSaved[t], a.finalPairs[t]
		if raw != saved+final {
			a.fail("combine-conservation", fmt.Sprintf("map task %d", t),
				fmt.Sprintf("raw %d bytes != combiner-elided %d + final %d", raw, saved, final))
		}
	}

	// Spills: every intermediate byte written on a node must be read back.
	nodes := make([]int, 0, len(a.spillWritten))
	for n := range a.spillWritten {
		nodes = append(nodes, n)
	}
	for n := range a.spillRead {
		if _, ok := a.spillWritten[n]; !ok {
			nodes = append(nodes, n)
		}
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		if w, r := a.spillWritten[n], a.spillRead[n]; w != r {
			a.fail("spill-conservation", fmt.Sprintf("node %d", n),
				fmt.Sprintf("spilled %d bytes to disk but read back %d", w, r))
		}
	}

	// Tasks: every launched attempt is the committed completion.
	kinds := make([]string, 0, len(a.launched))
	for k := range a.launched {
		kinds = append(kinds, k)
	}
	for k := range a.completed {
		if _, ok := a.launched[k]; !ok {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if a.launched[k] != a.completed[k] {
			a.fail("task-accounting", fmt.Sprintf("%s tasks", k),
				fmt.Sprintf("launched %d != completed %d", a.launched[k], a.completed[k]))
		}
	}
}

// CheckSim sweeps the simulation for leaks once the run is over: every
// resource idle, every disk queue drained, no live processes, and no data
// left on surviving nodes' scratch disks. Finish calls it with the
// runtime's own environment for single-job runs; the service calls it once
// over the shared environment after every multiplexed job drains.
func (a *Audit) CheckSim(env *sim.Env, cl *cluster.Cluster) {
	for _, r := range env.Resources() {
		if r.InUse() != 0 || r.Waiting() != 0 {
			a.fail("resource-leak", r.Name(),
				fmt.Sprintf("%d units still held, %d still queued after run", r.InUse(), r.Waiting()))
		}
	}
	if n := env.LiveCount(); n != 0 {
		a.fail("proc-leak", "simulation", fmt.Sprintf("%d processes still live after run", n))
	}
	for _, node := range cl.Nodes() {
		for _, dev := range []struct {
			label string
			pend  int
		}{
			{"dfs disk", node.DFSDevice().Pending()},
			{"scratch disk", node.ScratchDevice().Pending()},
		} {
			if dev.pend != 0 {
				a.fail("disk-queue-leak", fmt.Sprintf("node %d %s", node.ID, dev.label),
					fmt.Sprintf("%d requests still pending after run", dev.pend))
			}
		}
		if node.Failed() {
			// A failed node legitimately strands the map outputs and staged
			// leftovers that recovery re-created elsewhere.
			continue
		}
		for _, name := range node.ScratchStore().Names() {
			f, _ := node.ScratchStore().Open(name)
			a.fail("scratch-leak", fmt.Sprintf("node %d", node.ID),
				fmt.Sprintf("scratch file %q holds %d undeleted bytes after run", name, f.Size()))
		}
	}
}

// FormatAuditFailures renders failures one per line for reports and errors.
func FormatAuditFailures(failures []AuditFailure) string {
	msgs := make([]string, len(failures))
	for i, f := range failures {
		msgs[i] = f.String()
	}
	return strings.Join(msgs, "\n")
}
