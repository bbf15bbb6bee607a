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
	// adapters, three resolvers and two switches that contract replaced; a
	// test that names one is testing a deleted way.
	{
		name:    "one aggregation contract",
		pattern: `\b(Aggregator|EffectiveCombine|DeclaredAgg|HasCombiner|MonoidAgg|OrderInsensitive|DisableMonoid|deltaCapable|NeedsReduce|listAgg|CountAgg|PostingsAgg|CommutativeMonoid|IsCommutative)\b`,
		tests:   true,
		msg:     "declare aggregation as Job.Reduce + Job.Monoid and resolve it with Job.Fold",
		bad:     `	if job.HasCombiner() {`,
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
	// (engine.Registry.Pull), drains its push queue through
	// PushChannel.PopFresh, and a push-only mapper delivers through one loop
	// (engine.JobRun.PushOutput) (DESIGN.md §3). A registry call or a raw
	// Pop in an engine package is a hand-written shuffle endpoint.
	{
		name:    "one shuffle endpoint: pull and push-only delivery",
		pattern: `\b(WaitBeyond|FetchPart|ConsumePart|CompletePushed)\(`,
		exempt:  []string{"internal/engine/"},
		msg:     "pull through Registry.Pull and deliver push-only output through JobRun.PushOutput",
		bad:     `	data := j.Reg.FetchPart(p, node.ID, m, r)`,
	},
	{
		name:    "one shuffle endpoint: push queue",
		pattern: `\.Pop\(`,
		in:      []string{"internal/core/*.go"},
		msg:     "drain the hash reducer's push queue through PushChannel.PopFresh",
		bad:     `	chunk, ok := pc.Pop(p)`,
	},
	// Every run-configuration knob has a non-test caller. These are the
	// names of values no launcher set, deleted with the test-only paths they
	// selected. One coming back is a knob that doubles the configurations
	// to check. TestConfigHasNoDeletedKnob covers onepass.Config's fields.
	{
		name:    "every knob has a caller",
		pattern: `\b(DisablePush|FreshWindow|SkewedUsers|FaultNodeAtFrac|BaselineMS|NetBandwidth|NetLatency|DiskProfile)\b`,
		msg:     "a run-configuration value needs a non-test caller",
		bad:     `	cfg.NetBandwidth = 125e6`,
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
