package engines

import (
	"fmt"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/enginetest"
	"onepass/internal/faults"
	"onepass/internal/gen"
	"onepass/internal/workloads"
)

// An audited run leaves every live node's scratch store empty, on every
// engine: map outputs, staged leftovers, recovered outputs, spills and
// merge runs are all consumed or deleted, and no engine writes a file no
// reader opens. A small push queue makes the push engines stage and pull
// part of their output too. The faulted run fails node 1 a fifth of the
// way through the clean makespan, so every engine recovers lost map
// output; a failed node's own files are exempt.
func TestAuditedRunLeavesScratchEmpty(t *testing.T) {
	for _, d := range List {
		t.Run(d.Name, func(t *testing.T) {
			cc := gen.DefaultClickConfig()
			cc.Users, cc.URLs = 300, 150
			w := workloads.Sessionization(cc)
			cfg := enginetest.Config{BlockSize: 32 << 10, InputSize: 16 * 32 << 10}
			opts := engine.Options{ChunkBytes: 4 << 10, BackpressureBytes: 8 << 10}
			run := func(t *testing.T, sched faults.Schedule) *engine.Result {
				f := enginetest.New(t, w, cfg)
				f.RT.Audit = engine.NewAudit()
				opts.Faults = sched
				res, err := engine.Run(f.RT, f.Job, opts, d.Plan)
				if err != nil {
					t.Fatal(err)
				}
				f.CheckOutput(t, w, res)
				if len(res.AuditFailures) > 0 {
					t.Fatalf("audit:\n%s", engine.FormatAuditFailures(res.AuditFailures))
				}
				for _, n := range f.RT.Cluster.Nodes() {
					if names := n.ScratchStore().Names(); !n.Failed() && len(names) != 0 {
						t.Errorf("node %d scratch holds %q after the run", n.ID, names)
					}
				}
				return res
			}
			clean := run(t, faults.Schedule{})
			sched, err := faults.Parse(fmt.Sprintf("fail@%.4fs:n1", clean.Makespan.Seconds()/5))
			if err != nil {
				t.Fatal(err)
			}
			if res := run(t, sched); res.Counters.Get(engine.CtrTasksReexecuted) == 0 {
				t.Error("the fault lost no map output: nothing was recovered")
			}
		})
	}
}
