package core

import (
	"errors"
	"strings"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/sim"
	"onepass/internal/workloads"
)

// A value-list state that comes back damaged from a spill file fails its
// reduce task with an *engine.TaskError that Drive returns as an error, and
// every process of the run — a bystander blocked on a timer too — has ended.
func TestDamagedSpillReadIsAnError(t *testing.T) {
	env, rc := newTestReduceCtx(t, 1<<20, 2)
	job := workloads.Sessionization(smallClicks()).Job
	job.Name = "ext-test"
	rc.job, rc.fold = &job, job.Fold()
	rc.rt.EngineLabel = "hash-incremental"
	state := rc.fold.Add(rc.fold.Lift(nil, []byte("10 /a")), []byte("20 /b"))
	finished := false
	env.Go("reduce", func(p *sim.Proc) {
		ss := newSpillSet(rc, 0, "t")
		key := []byte("hot-user")
		b := ss.bucketOf(key)
		ss.add(p, b, key, state[:len(state)-2], formState)
		ss.flushBucket(p, b)
		ss.processBucket(p, b, nil, func(k, s []byte) { rc.emitFinal(p, k, s) })
		finished = true
	})
	env.Go("bystander", func(p *sim.Proc) { p.Sleep(sim.Second) })
	err := engine.Drive(env)
	var te *engine.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("damaged spill read: %v, want a *engine.TaskError", err)
	}
	if te.Engine != "hash-incremental" || te.Kind != "reduce" || te.Task != 0 || te.Job != "ext-test" {
		t.Errorf("task error names %s/%s %s task %d", te.Engine, te.Job, te.Kind, te.Task)
	}
	if !strings.Contains(err.Error(), "not a whole number of frames") {
		t.Errorf("error %q does not say what was damaged", err)
	}
	if finished || env.LiveCount() != 0 {
		t.Fatalf("after the failure: task finished %v, %d processes live", finished, env.LiveCount())
	}
}
