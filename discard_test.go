package onepass

import (
	"bytes"
	"encoding/json"
	"testing"
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
