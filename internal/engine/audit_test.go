package engine

import (
	"strings"
	"testing"

	"onepass/internal/sim"
)

// balancedAudit builds a ledger in which every invariant holds: one map task
// whose combiner elided 40 of 100 raw bytes, whose 60 final bytes were
// shuffled as one pushed chunk and one leftover partition and fully
// ingested, 500 spill bytes written and read back, and clean task
// accounting.
func balancedAudit() *Audit {
	a := NewAudit()
	a.MapRawPairs(0, 100)
	a.CombineSaved(0, 40)
	a.MapFinalPairs(0, 60)
	a.ShuffleProduced(1, 0, 0, 0, 50)
	a.ShuffleIngested(0, 0, 0, 50)
	a.ShuffleProduced(1, 0, 1, -1, 10)
	a.ShuffleIngested(0, 1, -1, 10)
	a.SpillWritten(2, 500)
	a.SpillRead(2, 500)
	a.TaskLaunched("map")
	a.TaskCompleted("map")
	a.TaskLaunched("reduce")
	a.TaskCompleted("reduce")
	return a
}

func wantInvariant(t *testing.T, failures []AuditFailure, invariant, detail string) {
	t.Helper()
	if len(failures) != 1 {
		t.Fatalf("got %d failures, want exactly 1 (%s):\n%s",
			len(failures), invariant, FormatAuditFailures(failures))
	}
	f := failures[0]
	if f.Invariant != invariant {
		t.Fatalf("invariant %q fired, want %q (%s)", f.Invariant, invariant, f)
	}
	if !strings.Contains(f.Detail, detail) {
		t.Fatalf("failure %q does not mention %q", f, detail)
	}
	if f.Where == "" {
		t.Fatalf("failure %q has no attribution", f)
	}
}

func TestAuditBalancedLedgerPasses(t *testing.T) {
	if failures := balancedAudit().Finish(nil); len(failures) != 0 {
		t.Fatalf("balanced ledger failed:\n%s", FormatAuditFailures(failures))
	}
}

func TestAuditShuffleConservationFires(t *testing.T) {
	// A chunk handed to the shuffle that no reducer ever accepted — the
	// signature of a dropped transfer.
	a := balancedAudit()
	a.ShuffleProduced(1, 7, 2, 0, 999)
	wantInvariant(t, a.Finish(nil), "shuffle-conservation", "produced 999 bytes but reducers ingested 0")
}

func TestAuditShuffleDuplicateDeliveryFires(t *testing.T) {
	// The same chunk ingested twice — dedup logic broken on the reduce side.
	a := balancedAudit()
	a.ShuffleIngested(0, 0, 0, 50)
	wantInvariant(t, a.Finish(nil), "shuffle-conservation", "ingested 100")
}

// A chunk pushed twice under one (task, seq) identity reaches its reducer
// twice, and the ingest ledger Pop keeps counts both: nothing between the
// queue and the ledger hides a re-delivery from shuffle-conservation.
func TestPushedTwiceFailsShuffleConservation(t *testing.T) {
	rt := testRuntime(2)
	rt.Audit = NewAudit()
	pc := rt.NewPushChannels(1, 1<<20)[0]
	rt.Env.Go("mapper", func(p *sim.Proc) {
		for range 2 {
			if !pc.TryPush(p, 0, 1, 7, 0, []byte("chunk")) {
				t.Error("push refused")
			}
		}
		pc.Close()
	})
	popped := 0
	rt.Env.Go("reducer", func(p *sim.Proc) {
		for _, ok := pc.Pop(p); ok; _, ok = pc.Pop(p) {
			popped++
		}
	})
	rt.Env.Run()
	if popped != 2 {
		t.Fatalf("reducer popped %d chunks, want both deliveries", popped)
	}
	wantInvariant(t, rt.Audit.Finish(rt), "shuffle-conservation", "produced 5 bytes but reducers ingested 10")
}

// Any file left on a live node's scratch store is a leak, an empty one
// included; a failed node's files are recovery's to abandon.
func TestAuditEmptyScratchFileLeaks(t *testing.T) {
	rt := testRuntime(2)
	rt.Cluster.Node(1).ScratchStore().Create("t/map-00000/marker", false)
	rt.Cluster.Node(0).ScratchStore().Create("t/map-00001/file.out", false)
	rt.Cluster.Node(0).Fail()
	wantInvariant(t, NewAudit().Finish(rt), "scratch-leak", `"t/map-00000/marker" holds 0 undeleted bytes`)
}

func TestAuditNondeterministicAttemptFires(t *testing.T) {
	// A re-executed attempt producing a different chunk size than the
	// original — recovery is supposed to be byte-deterministic.
	a := balancedAudit()
	a.ShuffleProduced(4, 0, 0, 0, 51)
	wantInvariant(t, a.Finish(nil), "shuffle-conservation", "nondeterministic attempt")
}

func TestAuditCombineConservationFires(t *testing.T) {
	// Final bytes exceeding raw minus combiner savings — a counter that
	// forgot part of the data path.
	a := balancedAudit()
	a.MapRawPairs(5, 100)
	a.CombineSaved(5, 40)
	a.MapFinalPairs(5, 61)
	wantInvariant(t, a.Finish(nil), "combine-conservation", "raw 100 bytes != combiner-elided 40 + final 61")
}

func TestAuditSpillConservationFires(t *testing.T) {
	// Bytes spilled to disk that were never merged or hashed back.
	a := balancedAudit()
	a.SpillWritten(3, 123)
	wantInvariant(t, a.Finish(nil), "spill-conservation", "spilled 123 bytes to disk but read back 0")
}

func TestAuditTaskAccountingFires(t *testing.T) {
	// A launched attempt that never committed.
	a := balancedAudit()
	a.TaskLaunched("reduce")
	wantInvariant(t, a.Finish(nil), "task-accounting", "launched 2 != completed 1")
}

func TestAuditErrorFormatting(t *testing.T) {
	res := &Result{}
	if err := res.AuditError(); err != nil {
		t.Fatalf("clean result returned audit error %v", err)
	}
	res.AuditFailures = []AuditFailure{{Invariant: "spill-conservation", Where: "node 3", Detail: "spilled 1 byte"}}
	err := res.AuditError()
	if err == nil {
		t.Fatal("failing result returned nil audit error")
	}
	for _, want := range []string{"spill-conservation", "node 3", "1 audit failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("audit error %q missing %q", err, want)
		}
	}
}
