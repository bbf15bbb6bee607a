package sim

// Parallel intra-run execution. The simulator's determinism contract —
// exactly one process executes at any virtual instant — is about *virtual*
// effects: clock reads, event scheduling, resource accounting, trace
// emission. Pure data work (sorting a buffer, folding records into a hash
// table, merging sorted runs) has no virtual effect at all, so it can run
// on real goroutines concurrently with the event loop without perturbing
// the schedule, as long as the submitting process joins the work before
// anything reads its results.
//
// StartWork dispatches such a closure to a bounded pool; Work.Wait joins
// it. The join blocks in real time only — it consumes no virtual time, no
// event-heap sequence numbers, and no scheduler state — so a run with
// workers enabled replays the exact event sequence of a serial run. With
// workers disabled (the default) StartWork runs the closure inline at the
// submit point, which keeps the serial path cheap.
//
// Ownership rule: between StartWork and Wait the closure has exclusive
// access to everything it captures. The submitting process must not touch
// captured state in that window, and the closure must not touch the Env,
// Proc, any Resource or Trigger, or any shared scratch buffer.

import "time"

// Work is a handle to one dispatched closure.
type Work struct {
	p    *Proc
	done chan struct{}
	err  interface{}
}

// joined is the handle of every closure that ran inline: Wait only reads a
// handle whose done is nil, so one value serves all of them, on any goroutine.
var joined = &Work{}

// WorkStats summarizes a run's StartWork activity: how many closures were
// dispatched, the aggregate real time spent inside them, and the peak
// number in flight at once. Busy is measured on the inline path too, so a
// serial run reports the closure share of its wall clock — the Amdahl
// numerator for the overlap a multi-core host can realize. All of it is
// real-time observability with zero virtual effect; none of it may feed
// back into simulation state.
type WorkStats struct {
	Dispatched  int64
	MaxInFlight int64
	Busy        time.Duration
}

// Add accumulates another run's stats (for sweeps spanning many Envs).
func (s *WorkStats) Add(o WorkStats) {
	s.Dispatched += o.Dispatched
	s.Busy += o.Busy
	if o.MaxInFlight > s.MaxInFlight {
		s.MaxInFlight = o.MaxInFlight
	}
}

// SetWorkers bounds the pool for pure data work at n concurrent closures.
// n <= 1 disables the pool: StartWork runs closures inline. Must be called
// before Run; changing it mid-run would let serial and parallel segments
// interleave within one schedule.
func (e *Env) SetWorkers(n int) {
	if e.inRun {
		panic("sim: SetWorkers called during Run")
	}
	if n > 1 {
		e.workSem = make(chan struct{}, n)
		e.workers = n
	} else {
		e.workSem = nil
		e.workers = 1
	}
}

// Workers returns the configured pool width (1 when the pool is disabled).
func (e *Env) Workers() int {
	if e.workers == 0 {
		return 1
	}
	return e.workers
}

// WorkStats returns the pool activity so far. It is exact after Run; during
// Run it is a racy snapshot, fine for progress displays only.
func (e *Env) WorkStats() WorkStats {
	return WorkStats{
		Dispatched:  e.workDispatched.Load(),
		MaxInFlight: e.workMaxInFlight.Load(),
		Busy:        time.Duration(e.workBusyNs.Load()),
	}
}

// StartWork dispatches fn to the worker pool and returns a handle the
// calling process must Wait on before it next reads anything fn writes —
// and before the process exits (leaking unjoined work is a panic). fn must
// be pure data work: no Env, Proc, Resource, or Trigger use, and no shared
// scratch. When the pool is disabled fn runs inline before StartWork
// returns.
func (p *Proc) StartWork(fn func()) *Work {
	e := p.env
	if e.workSem == nil {
		e.workDispatched.Add(1)
		t0 := time.Now()
		fn()
		e.workBusyNs.Add(int64(time.Since(t0)))
		return joined
	}
	w := &Work{p: p, done: make(chan struct{})}
	p.unjoined++
	e.pendingWork++
	go func() {
		e.workSem <- struct{}{}
		e.workDispatched.Add(1)
		cur := e.workInFlight.Add(1)
		for {
			peak := e.workMaxInFlight.Load()
			if cur <= peak || e.workMaxInFlight.CompareAndSwap(peak, cur) {
				break
			}
		}
		t0 := time.Now()
		defer func() {
			e.workBusyNs.Add(int64(time.Since(t0)))
			e.workInFlight.Add(-1)
			if r := recover(); r != nil {
				w.err = r
			}
			<-e.workSem
			close(w.done)
		}()
		fn()
	}()
	return w
}

// Do runs fn inline and returns an already-joined handle. Call sites that
// are pool-eligible only under some runtime condition use it for the
// inline branch so both branches produce a Work to Wait on.
func Do(fn func()) *Work {
	fn()
	return joined
}

// Wait joins the work: it blocks (in real time only) until the closure has
// finished, then re-raises any panic the closure hit on the submitting
// process's goroutine, where the simulator's normal failure path handles
// it. Waiting on an already-joined handle (including any handle from the
// inline path) is a no-op.
func (w *Work) Wait() {
	if w.done == nil {
		return
	}
	<-w.done
	w.done = nil
	w.p.unjoined--
	w.p.env.pendingWork--
	if w.err != nil {
		panic(w.err)
	}
}
