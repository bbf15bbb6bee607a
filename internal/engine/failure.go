package engine

import (
	"fmt"

	"onepass/internal/sim"
)

// TaskError is a task's failure on data it could not process: a block no
// replica can serve, a state that came back damaged from a spill file, a
// preserved-state record that does not decode, a reduce that broke its
// contract. Tasks have no error return, so a failing task unwinds with a
// *TaskError (Runtime.Fail, Abort); sim.Env.Run ends every other process on
// the way out, and Drive turns the *TaskError back into an error. Any other
// panic is a broken invariant and stays one.
type TaskError struct {
	Engine string
	Job    string
	// Kind is "map" or "reduce", and Task the map task's block index or the
	// reduce partition; Kind is empty for a failure outside any task.
	Kind    string
	Task    int
	Attempt int
	At      sim.Time // the virtual instant of the failure, when known
	Err     error
}

func (e *TaskError) Error() string {
	where := "outside any task"
	if e.Kind != "" {
		where = fmt.Sprintf("%s task %d (attempt %d)", e.Kind, e.Task, e.Attempt)
	}
	return fmt.Sprintf("%s: job %q: %s at %v: %v", e.Engine, e.Job, where, e.At, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// fill names the engine and job where e does not yet.
func (e *TaskError) fill(engine, job string) {
	if e.Engine == "" {
		e.Engine = engine
	}
	if e.Job == "" {
		e.Job = job
	}
}

// Fail ends the task p runs with err, naming the failure's virtual instant.
// err may be a *TaskError that already names its task; otherwise the task
// is named on the way out (RunMaps, RunReduces). It does not return.
func (rt *Runtime) Fail(p *sim.Proc, err error) {
	te, ok := err.(*TaskError)
	if !ok {
		te = &TaskError{Err: err}
	}
	if te.Engine == "" {
		te.Engine = rt.EngineLabel
	}
	if te.At == 0 {
		te.At = p.Now()
	}
	panic(te)
}

// Abort is Fail for code that holds no Runtime or process: a job's Reader,
// Map or Reduce, or a pooled closure, whose panic Work.Wait re-raises on
// the task's process. The task is named on the way out (RunMaps,
// RunReduces). It does not return.
func Abort(err error) {
	panic(&TaskError{Err: err})
}

// nameFailure, deferred around a task body, stamps a *TaskError unwinding
// through it with the task it failed in. Every other panic goes on as it
// came.
func (rt *Runtime) nameFailure(p *sim.Proc, job *Job, kind string, task, attempt int) {
	r := recover()
	if r == nil {
		return
	}
	if te, ok := r.(*TaskError); ok {
		if te.Kind == "" {
			te.Kind, te.Task, te.Attempt = kind, task, attempt
		}
		te.fill(rt.EngineLabel, job.Name)
		if te.At == 0 {
			te.At = p.Now()
		}
	}
	panic(r)
}

// Drive runs env to completion and returns the *TaskError a task failed
// with, if one did; every process has ended either way (sim.Env.Run). The
// callers that drive a simulation — Run, the delta runner's state publish,
// a service — go through here.
func Drive(env *sim.Env) (err error) {
	defer func() {
		if r := recover(); r != nil {
			te, ok := r.(*TaskError)
			if !ok {
				panic(r)
			}
			err = te
		}
	}()
	env.Run()
	return nil
}
