package check

import (
	"strings"
	"testing"
)

// TestFuzzTupleDeterministic: the same seed must always describe the same
// tuple — repro lines in failure reports depend on it.
func TestFuzzTupleDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a, b := FuzzTuple(seed), FuzzTuple(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: %s != %s", seed, a, b)
		}
		c := a.Cfg
		if c.Nodes < 3 || c.Nodes > 8 || c.Reducers < 1 || c.Reducers > 8 ||
			c.MemoryPerTask < 256<<10 || c.BlockSize < 16<<10 || c.ChunkBytes < 4<<10 {
			t.Fatalf("seed %d: out-of-range config: %s", seed, a)
		}
		if !c.Audit || !c.RetainOutput {
			t.Fatalf("seed %d: audits or output retention disarmed: %s", seed, a)
		}
	}
}

// TestReportMarkdown: the failing-tuples artifact must carry the seed, the
// tuple, and a per-failure table row.
func TestReportMarkdown(t *testing.T) {
	rep := &Report{Tuples: 2, Runs: 35, Failures: []Failure{{
		Seed: 7, Engine: "hadoop", Stage: "faulted",
		Detail: "checksum diverged", Tuple: "seed=7 workload=x",
	}}}
	md := rep.Markdown(1)
	for _, want := range []string{"| 7 | hadoop | faulted |", "seed=7 workload=x", "1 failure"} {
		if !strings.Contains(md, want) {
			t.Fatalf("report missing %q:\n%s", want, md)
		}
	}
	clean := (&Report{Tuples: 2, Runs: 35}).Markdown(1)
	if !strings.Contains(clean, "All engines agree") {
		t.Fatalf("clean report: %s", clean)
	}
}
