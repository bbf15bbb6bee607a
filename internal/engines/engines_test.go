package engines

import (
	"fmt"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/enginetest"
	"onepass/internal/faults"
	"onepass/internal/gen"
	"onepass/internal/sim"
	"onepass/internal/trace"
	"onepass/internal/workloads"
)

// An audited run leaves every live node's scratch store empty, on every
// engine: map outputs, staged leftovers, recovered outputs, spills and
// merge runs are all consumed or deleted, and no engine writes a file no
// reader opens. A small push queue makes the push engines stage and pull
// part of their output too. One faulted run fails node 1 a fifth of the way
// through the clean makespan, so every engine recovers lost map output; two
// more just past the map barrier, when the pulling readers have fetched
// some of node 1's partitions and not others, so a recovery rewrites only
// the rest. A failed node's own files are exempt.
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
			_, mapEnd, ok := clean.Timeline.PhaseWindow("map")
			if !ok {
				t.Fatal("run has no map spans")
			}
			pushOnly := d.Name == "mapreduce-online" || d.Name == "resident"
			recovered := func(at float64) float64 {
				sched, err := faults.Parse(fmt.Sprintf("fail@%.4fs:n1", at))
				if err != nil {
					t.Fatal(err)
				}
				return run(t, sched).Counters.Get(engine.CtrTasksReexecuted)
			}
			if recovered(clean.Makespan.Seconds()/5) == 0 {
				t.Error("map phase: the fault lost no map output: nothing was recovered")
			}
			// Just past the barrier, and a little later: at the second
			// instant the hash readers finish fetching some of the lost
			// partitions while the recovery rebuilds them.
			inReduce := recovered(mapEnd.Seconds()*1.01) + recovered(mapEnd.Seconds()*1.03)
			if pushOnly && inReduce != 0 {
				t.Errorf("reduce phase: %v outputs recovered, want none: past the map barrier every push-only reader holds its partitions", inReduce)
			}
			if !pushOnly && inReduce == 0 {
				t.Error("reduce phase: the fault lost no map output: nothing was recovered")
			}
		})
	}
}

// A recovery writes only what its readers still lack. Node 1 fails just
// past the map barrier of hadoop and the hash engines, when the reducers
// have pulled some of its partitions and not others; each lost output's
// recovery must write the bytes node 1 held for pulling — hadoop's map
// output file, a hash task's staged leftovers — less the partitions pulled
// before the failure, and none of those.
func TestRecoveryWritesNoConsumedPartition(t *testing.T) {
	for _, d := range List {
		if d.Name == "mapreduce-online" || d.Name == "resident" {
			continue // no pulled partitions
		}
		t.Run(d.Name, func(t *testing.T) {
			cc := gen.DefaultClickConfig()
			cc.Users, cc.URLs = 300, 150
			w := workloads.Sessionization(cc)
			cfg := enginetest.Config{BlockSize: 32 << 10, InputSize: 16 * 32 << 10}
			run := func(sched faults.Schedule) (*engine.Result, *trace.Log) {
				f := enginetest.New(t, w, cfg)
				log := trace.NewLog()
				f.RT.Tracer = log
				res, err := engine.Run(f.RT, f.Job, engine.Options{
					ChunkBytes: 4 << 10, BackpressureBytes: 8 << 10, Faults: sched}, d.Plan)
				if err != nil {
					t.Fatal(err)
				}
				f.CheckOutput(t, w, res)
				return res, log
			}
			clean, _ := run(faults.Schedule{})
			_, mapEnd, ok := clean.Timeline.PhaseWindow("map")
			if !ok {
				t.Fatal("run has no map spans")
			}
			const dead = 1
			sched, err := faults.Parse(fmt.Sprintf("fail@%.4fs:n%d", mapEnd.Seconds()*1.01, dead))
			if err != nil {
				t.Fatal(err)
			}
			_, log := run(sched)

			arg := func(ev trace.Event, key string) trace.Arg {
				for _, a := range ev.Args {
					if a.Key == key {
						return a
					}
				}
				return trace.Arg{}
			}
			failAt := sim.Time(-1)
			recovered := map[int]bool{}
			held, pulled, written := map[int]float64{}, map[int]float64{}, map[int]float64{}
			for _, ev := range log.Events() {
				switch {
				case ev.Type == trace.Fault && ev.Name == "fault-fail":
					failAt = ev.At
				case ev.Type == trace.TaskStart && ev.Name == engine.SpanMap && ev.Attempt > 0:
					recovered[ev.Task] = true
				// What node 1 held for pulling: hadoop's map output, a hash
				// task's leftovers (its own map-output event is the billed
				// write of the frame it pushed from).
				case ev.Node == dead && (ev.Name == "leftover" || ev.Name == "map-output" && d.Name == "hadoop"):
					held[ev.Task] += arg(ev, "bytes").Num
				case ev.Node != dead && ev.Name == "map-output" && failAt >= 0:
					written[ev.Task] += arg(ev, "bytes").Num
				case ev.Type == trace.ShuffleTransfer && arg(ev, "mode").Str == "pull" && failAt < 0:
					pulled[int(arg(ev, "map").Num)] += arg(ev, "bytes").Num
				}
			}
			if failAt < 0 || len(recovered) == 0 {
				t.Fatalf("the failure at %v recovered %d outputs", failAt, len(recovered))
			}
			consumedSome := false
			for task := range recovered {
				consumedSome = consumedSome || pulled[task] > 0
				if want := held[task] - pulled[task]; written[task] != want {
					t.Errorf("map %d: recovery wrote %v bytes, want %v: the %v node %d held less the %v its readers had pulled",
						task, written[task], want, held[task], dead, pulled[task])
				}
			}
			if !consumedSome {
				t.Fatal("no reader had pulled a partition of a lost output: the case tests nothing")
			}
		})
	}
}
