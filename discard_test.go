package onepass

import (
	"bytes"
	"encoding/json"
	"maps"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/workloads"
)

// Discarded output is measured, never encoded: on every engine a run that
// discards its output must charge, time and checksum exactly what the same
// run keeping it does — makespan, output pairs, bytes and checksum, first
// output, counters, CPU by phase and the Chrome trace, byte for byte. HOP's
// snapshot files and the hot-key engine's approximate-early file are
// discarded-or-kept writers of their own, so both are exercised too.
func TestDiscardMatchesKeep(t *testing.T) {
	// Per-user-count's output is one small Close per reducer; sessionization
	// writes every reducer's output across several write-behind flushes.
	workloads := []struct {
		name    string
		mk      func() *Workload
		flushes bool
	}{
		{"per-user-count", func() *Workload { return PerUserCount(tinyClicks()) }, false},
		{"sessionization", func() *Workload { return Sessionization(tinyClicks()) }, true},
	}
	for _, e := range Engines() {
		for _, w := range workloads {
			t.Run(e.String()+"/"+w.name, func(t *testing.T) {
				run := func(discard bool) (*Result, []byte, []byte) {
					cfg := tinyConfig(e)
					cfg.RetainOutput, cfg.DiscardOutput = false, discard
					cfg.ApproximateEarly = e == HashHotKey
					tl := NewTraceLog()
					cfg.Trace = tl
					res, err := RunWorkload(cfg, w.mk(), 1<<20)
					if err != nil {
						t.Fatal(err)
					}
					var chrome bytes.Buffer
					if err := tl.WriteChrome(&chrome); err != nil {
						t.Fatal(err)
					}
					js, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					return res, js, chrome.Bytes()
				}
				kept, keptJSON, keptTrace := run(false)
				disc, discJSON, discTrace := run(true)
				if kept.OutputPairs == 0 || w.flushes && kept.OutputBytes < int64(tinyConfig(e).Reducers)<<17 {
					t.Fatalf("kept run emitted %d bytes: too few to cross the flush boundaries", kept.OutputBytes)
				}
				if (e == MapReduceOnline || e == HashHotKey) && len(kept.Snapshots) == 0 {
					t.Fatal("no early answers: the snapshot writers went unexercised")
				}
				if disc.Makespan != kept.Makespan || disc.FirstOutputAt != kept.FirstOutputAt {
					t.Errorf("discarding run ends at %v, first output %v; keeping run %v, %v",
						disc.Makespan, disc.FirstOutputAt, kept.Makespan, kept.FirstOutputAt)
				}
				if disc.OutputChecksum != kept.OutputChecksum || disc.OutputPairs != kept.OutputPairs ||
					disc.OutputBytes != kept.OutputBytes {
					t.Errorf("discarding run output %d pairs, %d bytes, checksum %016x; keeping run %d, %d, %016x",
						disc.OutputPairs, disc.OutputBytes, disc.OutputChecksum,
						kept.OutputPairs, kept.OutputBytes, kept.OutputChecksum)
				}
				if !bytes.Equal(discJSON, keptJSON) {
					t.Error("results differ (counters, CPU by phase, series or timeline)")
				}
				if !bytes.Equal(discTrace, keptTrace) {
					t.Errorf("Chrome traces differ: %d bytes discarding, %d keeping", len(discTrace), len(keptTrace))
				}
			})
		}
	}
}

// Retained output is the part files: on every engine Result.Output is what
// decoding the job's part files (the resident engine's memory-resident
// ones) gives. Sessionization's reducers each write past several
// write-behind flushes; hash-incremental with EmitWhen emits its threshold
// answers mid-job, before the rest of its output.
func TestRetainedOutputIsThePartFiles(t *testing.T) {
	type run struct {
		name    string
		engine  Engine
		w       *Workload
		flushes bool
	}
	var runs []run
	for _, e := range Engines() {
		runs = append(runs, run{e.String() + "/sessionization", e, Sessionization(tinyClicks()), true})
	}
	early := PerUserCount(tinyClicks())
	early.Job.EmitWhen = func(_, state []byte) bool { return workloads.CountState(state) >= 3 }
	runs = append(runs, run{"hash-incremental/per-user-count-emitwhen", HashIncremental, early, false})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cfg := tinyConfig(r.engine)
			c := NewCluster(cfg)
			if err := c.Register(Dataset{Path: "input/" + r.w.Name, Size: 1 << 20, Gen: r.w.Gen}); err != nil {
				t.Fatal(err)
			}
			job := r.w.Job
			job.InputPath, job.OutputPath = "input/"+r.w.Name, "out/"+r.w.Name
			res, err := c.RunJob(job)
			if err != nil {
				t.Fatal(err)
			}
			if r.flushes && res.OutputBytes < int64(cfg.Reducers)<<17 {
				t.Fatalf("emitted %d bytes: too few to cross the flush boundaries", res.OutputBytes)
			}
			if !r.flushes && res.FirstOutputAt.Seconds() >= res.Makespan.Seconds() {
				t.Fatalf("first output at %v, job end %v: no threshold answer left early", res.FirstOutputAt, res.Makespan)
			}
			want := engine.OutputMap(c.partFiles(job.OutputPath), res.OutputPairs)
			if len(res.Output) == 0 || !maps.Equal(res.Output, want) {
				t.Fatalf("Result.Output has %d keys; the part files decode to %d, or differ", len(res.Output), len(want))
			}
		})
	}
}
