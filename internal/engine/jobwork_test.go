package engine

import (
	"sync/atomic"
	"testing"

	"onepass/internal/sim"
)

// scratchJob returns a job whose Map keeps unsynchronized scratch, the way
// the workloads' functions do, and whose Fresh builds an independent copy.
// built counts the copies; calls[i] is copy i's own call count.
func scratchJob(built *atomic.Int32, calls *[16]int) *Job {
	var mk func() Job
	mk = func() Job {
		mine := &calls[built.Add(1)-1]
		return Job{
			Name:   "scratch",
			Map:    func([]byte, Emit) { *mine++ },
			Reduce: func([]byte, [][]byte, Emit) {},
			Monoid: byteSum{},
			Fresh:  mk,
		}
	}
	j := mk()
	return &j
}

// Scratch belongs to the executing thread: pooled closures reach the user
// functions through their worker's clone — never the job itself, never a
// clone another worker is using (run under -race: the scratch is a plain
// int) — a worker builds its clone once, with one Fold, and inline runs and
// jobs without Fresh get the job itself.
func TestStartJobWorkHandsEachWorkerItsOwnClone(t *testing.T) {
	const workers, n = 4, 200
	var built atomic.Int32
	var calls [16]int
	job := scratchJob(&built, &calls)

	rt := testRuntime(1)
	rt.Env.SetWorkers(workers)
	folds := make([]*Fold, n)
	rt.Env.Go("p", func(p *sim.Proc) {
		works := make([]*sim.Work, n)
		for i := range works {
			works[i] = rt.StartJobWork(p, job, func(wj *Job) {
				if wj == job {
					t.Error("pooled closure was handed the job itself")
				}
				wj.Map(nil, nil)
				folds[i] = wj.Fold()
			})
		}
		for _, w := range works {
			w.Wait()
		}
	})
	rt.Env.Run()
	clones := int(built.Load()) - 1 // the job itself was the first copy
	if clones < 1 || clones > workers {
		t.Errorf("%d clones built for %d workers", clones, workers)
	}
	if calls[0] != 0 {
		t.Errorf("the job's own Map ran %d times under the pool", calls[0])
	}
	total, distinct := 0, map[*Fold]bool{}
	for _, c := range calls {
		total += c
	}
	for _, f := range folds {
		distinct[f] = true
	}
	if total != n || len(distinct) != clones {
		t.Errorf("%d Map calls through %d folds, want %d through %d (one Fold per clone)", total, len(distinct), n, clones)
	}

	for _, tc := range []struct {
		name    string
		workers int
		fresh   bool
	}{{"inline", 1, true}, {"no Fresh", workers, false}} {
		rt := testRuntime(1)
		rt.Env.SetWorkers(tc.workers)
		j := *job
		if !tc.fresh {
			j.Fresh = nil
		}
		before := built.Load()
		rt.Env.Go("p", func(p *sim.Proc) {
			ran := false
			rt.StartJobWork(p, &j, func(wj *Job) { ran = wj == &j }).Wait()
			if !ran {
				t.Errorf("%s: closure did not run inline on the job itself", tc.name)
			}
		})
		rt.Env.Run()
		if built.Load() != before {
			t.Errorf("%s: Fresh was called", tc.name)
		}
	}
}
