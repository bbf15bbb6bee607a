package engine

import (
	"fmt"

	"onepass/internal/faults"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// InstallFaults spawns one injector process per scheduled fault. Every
// injector waits on the job-completion trigger with its fault time as the
// timeout, so a fault scheduled past job completion cancels cleanly instead
// of keeping the event heap alive and stretching the measured makespan.
//
// onNodeFail, when non-nil, runs right after a NodeFailure is applied —
// engines pass the hook that marks the dead node's registered map outputs
// lost (Registry.FailNode). Windowed degradations are restored when their
// window closes or the job finishes, whichever comes first, so a shared
// cluster is handed back clean to chained jobs.
func (rt *Runtime) InstallFaults(sched faults.Schedule, onNodeFail func(node int)) {
	if sched.Empty() {
		return
	}
	if err := sched.Validate(len(rt.Cluster.Nodes()), rt.Cluster.ComputeIDs()); err != nil {
		panic(err)
	}
	for i, f := range sched.Faults {
		f := f
		rt.Env.Go(fmt.Sprintf("fault-%d-%s-n%d", i, f.Kind, f.Node), func(p *sim.Proc) {
			delay := f.At - rt.Env.Now().Sub(rt.start)
			if rt.waitDoneOr(p, delay) {
				return // job finished before the fault was due
			}
			rt.inject(p, f, onNodeFail)
		})
	}
}

func (rt *Runtime) inject(p *sim.Proc, f faults.Fault, onNodeFail func(node int)) {
	node := rt.Cluster.Node(f.Node)
	rt.Counters.Add(CtrFaultsInjected, 1)
	rt.Emit(trace.Fault, "fault-"+f.Kind.String(), f.Node, -1, 0,
		trace.Num("factor", f.Factor), trace.Num("windowSec", f.For.Seconds()))
	switch f.Kind {
	case faults.NodeFailure:
		node.Fail()
		if onNodeFail != nil {
			onNodeFail(f.Node)
		}
		return
	case faults.DiskSlow:
		node.SetDiskSlowdown(f.Factor)
	case faults.NetDegrade:
		rt.Cluster.Net.SetDegraded(f.Node, f.Factor)
	case faults.Straggler:
		node.SetCPUSlowdown(f.Factor)
	}
	// Hold the degradation for its window (or until the job ends), then
	// restore. Overlapping windows on the same node restore to full speed
	// when the first one closes; schedules wanting compound behaviour should
	// use disjoint windows.
	if f.For > 0 {
		rt.waitDoneOr(p, f.For)
	} else if !rt.finished {
		rt.jobDone.Wait(p)
	}
	switch f.Kind {
	case faults.DiskSlow:
		node.SetDiskSlowdown(1)
	case faults.NetDegrade:
		rt.Cluster.Net.SetDegraded(f.Node, 1)
	case faults.Straggler:
		node.SetCPUSlowdown(1)
	}
	rt.Emit(trace.Fault, "fault-"+f.Kind.String()+"-restored", f.Node, -1, 0)
}
