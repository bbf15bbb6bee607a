package onepass

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// codeRule is one structural rule of the codebase: no line of the Go files
// it covers may match pattern. Each rule keeps a deleted design from
// growing back; bad is a line of that design, which pattern must match, so
// no rule can go dead.
type codeRule struct {
	name    string
	pattern string
	// in lists the path.Match globs the rule covers; none means every Go
	// file. exempt lists path prefixes it does not cover.
	in, exempt []string
	// tests extends the rule to _test.go files.
	tests bool
	msg   string
	bad   string
}

var codeRules = []codeRule{
	// Engines are launched through the descriptor list in internal/engines
	// and nowhere else: a launcher that names an engine package's entry
	// point is the start of another hand-written dispatch switch, the kind
	// that once left the resident engine out of one launcher.
	{
		name:    "one launch table",
		pattern: `\b(hadoop|hop|core|resident)\.(Run|Start)\(`,
		exempt:  []string{"bench/", "internal/engines/engines.go"},
		msg:     "launch engines through internal/engines, not by package",
		bad:     `	res, err := hop.Run(rt, job, opts)`,
	},
	// A job's aggregation is Reduce plus an optional kv.Monoid, resolved in
	// one place (engine.Job.Fold). These are the names of the four ways, two
	// adapters, three resolvers and two switches that contract replaced, and
	// the identity element a Monoid no longer declares (a fold only combines
	// non-empty groups); a test that names one is testing a deleted way.
	{
		name:    "one aggregation contract",
		pattern: `\b(Aggregator|EffectiveCombine|DeclaredAgg|HasCombiner|MonoidAgg|OrderInsensitive|DisableMonoid|deltaCapable|NeedsReduce|listAgg|CountAgg|PostingsAgg|CommutativeMonoid|IsCommutative)\b|\bIdentity\(\)`,
		tests:   true,
		msg:     "declare aggregation as Job.Reduce + Job.Monoid and resolve it with Job.Fold; a Monoid has no Identity",
		bad:     `func (CountMonoid) Identity() []byte {`,
	},
	// Per-key state in the hash and resident engines is one memtable.Table:
	// keys and fold elements in the task's arena, no Go map and no heap
	// object per key.
	{
		name:    "one per-key state table",
		pattern: `map\[string\]`,
		in:      []string{"internal/core/*.go", "internal/resident/*.go"},
		msg:     "hold per-key state in memtable.Table, not in a Go map",
		bad:     `	groups := map[string][][]byte{}`,
	},
	// Preserved delta state is one run of every live partial in (key, block)
	// order (DESIGN.md §15): a capture is one sort of its part files, and
	// every install and merge a linear merge-join. A k-way merge or a
	// staging kv.Buffer in internal/incr is the per-block frames coming back.
	{
		name:    "one key-major preserved run",
		pattern: `MergeStreams|NewBuffer`,
		in:      []string{"internal/incr/*.go"},
		msg:     "keep preserved state as one key-major run: one sort per capture, linear merge-joins",
		bad:     `	merged := kv.MergeStreams(frames, nil)`,
	},
	// A run file's bytes are immutable and every reader aliases them
	// (DESIGN.md §10): kv.Grouper keeps the slices it is handed, and WriteRun
	// hands its slab to Store.Put. A copy mode on the Grouper, or a run
	// copied in with Append, re-copies every intermediate byte. hop's
	// backpressure stash appends a chunk it does not own and is outside
	// internal/sortmerge on purpose.
	{
		name:    "one copy per intermediate byte: aliasing grouper",
		pattern: `AllSliceStreams|Grouper\{Alias`,
		msg:     "kv.Grouper always aliases: every PairStream decodes a fixed buffer",
		bad:     `	g := kv.Grouper{Alias: false}`,
	},
	{
		name:    "one copy per intermediate byte: adopted runs",
		pattern: `store\.Append\(`,
		in:      []string{"internal/sortmerge/*.go"},
		msg:     "a run file adopts its bytes (disk.Store.Put); do not copy them in with Append",
		bad:     `	store.Append(p, f, slab)`,
	},
	// A declared job's map output on the hash and resident engines folds as
	// Map emits it, and its combine tables drain straight into the partition
	// frame (DESIGN.md §10). A buffer made in either package is a staging
	// copy between the tables and the frame coming back.
	{
		name:    "one copy from emit to frame",
		pattern: `NewBuffer|combineMapOutput`,
		in:      []string{"internal/core/*.go", "internal/resident/*.go"},
		msg:     "fold map output at emit (ExecuteMapWith's into) and drain the tables into a kv.FrameBuilder",
		bad:     `	buf := kv.NewBuffer(len(data))`,
	},
	// A map task's combine state is one memtable.Table whose partitions are
	// probe indexes over one entry store (DESIGN.md §10). A state table
	// built per partition, or a list of them, is the R tables per task — R
	// sets of entry segments, directories and wrappers — coming back.
	{
		name:    "one combine table per map task",
		pattern: `newStateTable\(|\[\]\*stateTable`,
		in:      []string{"internal/core/mapside.go"},
		msg:     "fold a map task's pairs into one partitioned table (newPartitionedStateTable), not a table per partition",
		bad:     `		mc.tables[r] = newStateTable(hashAtShared(1), mc.arena, fold)`,
	},
	// A map-output buffer lives only as long as its map closure (DESIGN.md
	// §10): ExecuteMapWith takes it from the free list once the block is
	// read and hands it back at the join, and the engine's post step is the
	// last code to see it. An engine that fetches or returns a buffer
	// itself is holding one past the closure, through the task's charges.
	{
		name:    "one map-buffer owner",
		pattern: `\.(AcquireBuffer|ReleaseBuffer)\(`,
		exempt:  []string{"internal/engine/"},
		msg:     "finish with the map-output buffer in ExecuteMapWith's post step; the runtime frees it at the join",
		bad:     `	rt.ReleaseBuffer(buf) // the frame is an encoded copy`,
	},
	// The sort-merge path's comparator calls are the cost model, so the
	// sort issuing them is kv's own pdqsort (zsort.go), not whichever one
	// the installed Go ships. A standard-library sort on the counted path
	// makes every sort count and makespan after it a property of the
	// toolchain. The reference tests' sort.Slice oracles are what the
	// in-repo sort is held to, so tests stay exempt.
	{
		name:    "one counted sort",
		pattern: `\b(slices\.Sort|sort\.(Slice|Sort|Stable))`,
		in:      []string{"internal/kv/*.go", "internal/sortmerge/*.go", "internal/hadoop/*.go", "internal/hop/*.go"},
		msg:     "sort on the counted path with kv's pdqsort (Buffer.SortByPartitionKey, Buffer.SortIndices)",
		bad:     `	slices.SortFunc(es, func(x, y sortEntry) int {`,
	},
	// An experiment is its renderer: the specs it runs are the Session.Run
	// calls in it, and RunAll overlaps whole experiments. A Specs/After
	// field or a function returning an experiment's specs is a second
	// description to keep in step with the first.
	{
		name:    "one description per experiment",
		pattern: `\b(Specs|After):|func [A-Za-z(][^{]*Specs\(`,
		in:      []string{"internal/experiments/*.go"},
		tests:   true,
		msg:     "describe an experiment's runs once, in its renderer",
		bad:     `func (s *Session) fig3Specs() []runSpec {`,
	},
	// A task or phase span is opened and closed in one place,
	// engine.Runtime's Begin/End, so the Timeline, the trace, the profiler
	// and the counter tracks see the same spans. A hand-paired
	// Timeline.Begin or span event anywhere else is a second record that
	// can drift.
	{
		name:    "one span record",
		pattern: `trace\.(TaskStart|TaskFinish|PhaseStart|PhaseEnd)\b|Timeline\.Begin\(`,
		exempt:  []string{"bench/", "internal/engine/runtime.go", "internal/trace/"},
		msg:     "open and close spans with engine.Runtime's Begin and End",
		bad:     `	rt.Emit(trace.TaskStart, "map", node.ID, b.Index, 0)`,
	},
	// The three §V reduce techniques are one core.hashReducer (DESIGN.md
	// §12): one ingest, one eviction primitive and one finalize, the mode
	// choosing the tables and the victim rule.
	{
		name:    "one hash reducer",
		pattern: `hybridReducer|incReducer|hotReducer|reducerImpl|finalizeWithSpill`,
		msg:     "reduce through core.hashReducer: one ingest, one eviction primitive, one finalize",
		bad:     `type hotReducer struct {`,
	},
	// A reducer reads a completed map's partition through one pull loop
	// (engine.Registry.Pull), and a push-only mapper delivers through one
	// loop (engine.JobRun.PushOutput) (DESIGN.md §3). A registry call in an
	// engine package is a hand-written shuffle endpoint.
	{
		name:    "one shuffle endpoint: pull and push-only delivery",
		pattern: `\b(WaitBeyond|FetchPart|ConsumePart|CompletePushed)\(`,
		exempt:  []string{"internal/engine/"},
		msg:     "pull through Registry.Pull and deliver push-only output through JobRun.PushOutput",
		bad:     `	data := j.Reg.FetchPart(p, node.ID, m, r)`,
	},
	// Push delivery keeps only what a reader uses. Recovery re-pushes only
	// past the delivery frontier, so a chunk reaches its reducer once and
	// PushChannel.Pop is the one drain: no duplicate set (PopFresh and its
	// counter), no sender node on a chunk. A push-only output is no file
	// (no "progress" marker) and a hash map task keeps no copy of its
	// output (nothing to release early). The pooled map loop counts into
	// locals, so no counter batch (metrics.Delta) stands between it and
	// the Counters bag.
	{
		name:    "push delivery keeps only what a reader uses",
		pattern: `\b(PopFresh|ReleaseFile|FromNode)\b|ShuffleDupChunks|shuffle\.duplicate\.chunks|metrics\.Delta\b|/progress"`,
		msg:     "drain pushed chunks with PushChannel.Pop and keep no scratch file no reader opens",
		bad:     `		chunk, ok := pc.PopFresh(p, node.ID)`,
	},
	// A lost map output has one recovery path (DESIGN.md §3): the registry
	// starts engine.JobRun.Recover at the loss, which regenerates the output
	// through the engine's Tasks.Rebuild and sends each partition the rest
	// past its frontier. These are the names of the lazy pull path and the
	// eager push path it replaced, with their hooks and singleflight.
	{
		name:    "one recovery path",
		pattern: `\b(ReexecWith|RepushLost|Regen|AfterMaps|reexecMapOutput|reexecWait)\b|\.Reexec\b`,
		msg:     "recover a lost map output through engine.JobRun.Recover, started by the registry at the loss",
		bad:     `			AfterMaps: func(p *sim.Proc) { j.RepushLost(p, buildChunks) },`,
	},
	// Every run-configuration knob has a non-test caller. These are the
	// names of values no launcher set, deleted with the test-only paths they
	// selected: among them speculative execution (a map task runs once and
	// re-runs only to recover), node memory (cluster.NodeMemory) and the
	// environment's second spellings of experiments -scale and
	// -parallel-intra. One coming back is a knob that doubles the
	// configurations to check. TestConfigHasNoDeletedKnob covers
	// onepass.Config's fields.
	{
		name:    "every knob has a caller",
		pattern: `\b(DisablePush|FreshWindow|SkewedUsers|FaultNodeAtFrac|BaselineMS|NetBandwidth|NetLatency|DiskProfile|Speculation|TaskWasted|MemoryPerNode)\b|MapTasksSpeculative|ONEPASS_(SCALE|PARALLEL)`,
		tests:   true,
		msg:     "a run-configuration value needs a non-test caller",
		bad:     `	cfg.NetBandwidth = 125e6`,
	},
	// A Result is printed (runjob -json, the behaviour fingerprint), never
	// decoded back: results are kept once, where the run made them. A
	// decoder outside the benchmark harness is the persisted run cache, or
	// a second copy of some output, coming back.
	{
		name:    "results are printed, never decoded",
		pattern: `\bUnmarshalJSON\b|json\.Unmarshal\(`,
		exempt:  []string{"bench/"},
		msg:     "keep a result where the run made it; do not decode Result JSON back",
		bad:     `func (s *Series) UnmarshalJSON(b []byte) error {`,
	},
}

// TestCodeRules holds every Go file of the module to codeRules.
func TestCodeRules(t *testing.T) {
	res := make([]*regexp.Regexp, len(codeRules))
	for i, r := range codeRules {
		res[i] = regexp.MustCompile(r.pattern)
		if !res[i].MatchString(r.bad) {
			t.Errorf("rule %q: pattern does not match its own violating line %q", r.name, r.bad)
		}
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The go tool ignores these too: .git, build caches.
			if p != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		p = filepath.ToSlash(p)
		// This table names every pattern it forbids.
		if !strings.HasSuffix(p, ".go") || p == "rules_test.go" {
			return nil
		}
		var applies []int
		for i, r := range codeRules {
			if r.covers(p) {
				applies = append(applies, i)
			}
		}
		if len(applies) == 0 {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for n, line := range strings.Split(string(src), "\n") {
			for _, i := range applies {
				if res[i].MatchString(line) {
					t.Errorf("%s:%d: %s\n  rule %q: %s", p, n+1, strings.TrimSpace(line), codeRules[i].name, codeRules[i].msg)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (r codeRule) covers(p string) bool {
	if strings.HasSuffix(p, "_test.go") && !r.tests {
		return false
	}
	for _, e := range r.exempt {
		if strings.HasPrefix(p, e) {
			return false
		}
	}
	if len(r.in) == 0 {
		return true
	}
	for _, g := range r.in {
		if ok, _ := path.Match(g, p); ok {
			return true
		}
	}
	return false
}

// deletedConfigKnobs are fields onepass.Config no longer has: deltas run
// through RunDelta, and HOP snapshots and node memory are not Config knobs.
var deletedConfigKnobs = []string{"Delta", "DisableSnapshots", "MemoryPerNode"}

// fieldsNamed returns the fields of struct type typ among names.
func fieldsNamed(typ reflect.Type, names []string) []string {
	var found []string
	for _, n := range names {
		if _, ok := typ.FieldByName(n); ok {
			found = append(found, n)
		}
	}
	return found
}

func TestConfigHasNoDeletedKnob(t *testing.T) {
	if got := fieldsNamed(reflect.TypeOf(struct{ DisableSnapshots bool }{}), deletedConfigKnobs); len(got) != 1 {
		t.Fatalf("the check finds %v in a struct holding DisableSnapshots", got)
	}
	if got := fieldsNamed(reflect.TypeOf(Config{}), deletedConfigKnobs); len(got) > 0 {
		t.Errorf("onepass.Config has %v: run deltas through RunDelta; HOP snapshots and node memory are not Config knobs", got)
	}
}
