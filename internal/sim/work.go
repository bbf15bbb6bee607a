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
// StartWork queues such a closure for a fixed set of Workers() goroutines;
// Work.Wait joins it. The join blocks in real time only — it consumes no
// virtual time, no event-heap sequence numbers, and no scheduler state — so
// a run with workers enabled replays the exact event sequence of a serial
// run. With one worker StartWork runs the closure inline at the submit
// point, which keeps the serial path cheap.
//
// The workers belong to a Run: the first pooled dispatch starts them, and
// Run stops them and waits for them to exit before it returns or re-raises a
// panic, so an Env that is not running owns no goroutine. A closure is told
// which worker executes it (StartWorkOn), so state that must never be shared
// by two closures running at once — user-function scratch — can be owned by
// the worker rather than rebuilt per task.
//
// Ownership rule: between StartWork and Wait the closure has exclusive
// access to everything it captures. The submitting process must not touch
// captured state in that window, and the closure must not touch the Env,
// Proc, any Resource or Trigger, or any shared scratch buffer.

import (
	"sync"
	"time"
)

// Work is a handle to one dispatched closure. It is the caller's until Wait
// returns: Wait recycles the handle for a later dispatch.
type Work struct {
	p    *Proc // nil once joined
	fn   func()
	fnOn func(worker int)
	// done is the worker's completion signal, one count per dispatch: the
	// worker never blocks on it, and it is recycled with the handle.
	done sync.WaitGroup
	err  interface{}
}

// workSlab is how many handles a dispatch that finds none free allocates
// at once: a run whose processes keep many closures in flight — more the
// slower the host's workers drain them — pays one object per slab, not
// two per handle.
const workSlab = 16

// joined is the handle of every closure that ran inline: Wait only reads a
// handle whose p is nil, so one value serves all of them, on any goroutine.
var joined = &Work{}

// WorkStats summarizes a run's StartWork activity: how many closures were
// dispatched, the aggregate real time spent inside them, and the peak
// number executing at once (1 on the inline path). Busy is measured on the
// inline path too, so a serial run reports the closure share of its wall
// clock — the Amdahl numerator for the overlap a multi-core host can
// realize. All of it is real-time observability with zero virtual effect;
// none of it may feed back into simulation state.
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

// SetWorkers sets how many goroutines execute pure data work. n <= 1 means
// none: StartWork runs closures inline. Must be called before Run; changing
// it mid-run would let serial and parallel segments interleave within one
// schedule.
func (e *Env) SetWorkers(n int) {
	if e.inRun {
		panic("sim: SetWorkers called during Run")
	}
	e.workers = n
}

// Workers returns the configured pool width (1 when the pool is disabled).
func (e *Env) Workers() int { return max(e.workers, 1) }

// WorkStats returns the pool activity so far. It is exact after Run; during
// Run it is a racy snapshot, fine for progress displays only.
func (e *Env) WorkStats() WorkStats {
	return WorkStats{
		Dispatched:  e.workDispatched.Load(),
		MaxInFlight: e.workMaxInFlight.Load(),
		Busy:        time.Duration(e.workBusyNs.Load()),
	}
}

// workPool is one Run's worker goroutines and the unbounded FIFO that feeds
// them. Unbounded because dispatch must never block the event loop: a full
// queue would stall every process behind the one that submitted.
type workPool struct {
	mu      sync.Mutex
	ready   sync.Cond // queue non-empty, or stopped
	queue   []*Work   // pending closures are queue[head:]
	head    int
	stopped bool
	exited  sync.WaitGroup
}

// startWorkers launches the Run's workers; called at its first pooled
// dispatch.
func (e *Env) startWorkers() {
	pl := &workPool{}
	pl.ready.L = &pl.mu
	pl.exited.Add(e.workers)
	for id := 0; id < e.workers; id++ {
		go pl.work(e, id)
	}
	e.pool = pl
}

// stopWorkers ends the Run's workers, if it started any, and returns once
// they have exited. A closure already executing finishes first; closures
// still queued — possible only when Run is unwinding from a panic — are
// dropped, their submitters being gone.
func (e *Env) stopWorkers() {
	pl := e.pool
	if pl == nil {
		return
	}
	e.pool = nil
	pl.mu.Lock()
	pl.stopped = true
	pl.mu.Unlock()
	pl.ready.Broadcast()
	pl.exited.Wait()
}

func (pl *workPool) put(w *Work) {
	pl.mu.Lock()
	pl.queue = append(pl.queue, w)
	pl.mu.Unlock()
	pl.ready.Signal()
}

// next blocks until a closure is queued and returns it, or nil once the
// pool is stopped.
func (pl *workPool) next() *Work {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for pl.head == len(pl.queue) && !pl.stopped {
		pl.ready.Wait()
	}
	if pl.stopped {
		return nil
	}
	w := pl.queue[pl.head]
	pl.queue[pl.head] = nil
	pl.head++
	if pl.head == len(pl.queue) {
		pl.queue, pl.head = pl.queue[:0], 0
	}
	return w
}

// work is worker id's goroutine.
func (pl *workPool) work(e *Env, id int) {
	clean := false
	defer func() {
		if !clean {
			// A closure ended this goroutine (runtime.Goexit, t.FailNow); its
			// execute has signalled the join. Keep the pool at full width.
			go pl.work(e, id)
			return
		}
		pl.exited.Done()
	}()
	for w := pl.next(); w != nil; w = pl.next() {
		e.execute(w, id)
	}
	clean = true
}

// execute runs one closure on worker id and signals its join, keeping a
// panic for Wait to re-raise.
func (e *Env) execute(w *Work, id int) {
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
		w.done.Done()
	}()
	if w.fnOn != nil {
		w.fnOn(id)
	} else {
		w.fn()
	}
}

// StartWork dispatches fn to the worker pool and returns a handle the
// calling process must Wait on before it next reads anything fn writes —
// and before the process exits (leaking unjoined work is a panic). fn must
// be pure data work: no Env, Proc, Resource, or Trigger use, and no shared
// scratch. When the pool is disabled fn runs inline before StartWork
// returns.
func (p *Proc) StartWork(fn func()) *Work { return p.dispatch(fn, nil) }

// StartWorkOn is StartWork for a closure that wants to know which worker
// executes it: fn receives an index in [0, Workers()) that no two closures
// running at the same time share (0 when the pool is disabled), so it can
// use state owned by that worker.
func (p *Proc) StartWorkOn(fn func(worker int)) *Work { return p.dispatch(nil, fn) }

func (p *Proc) dispatch(fn func(), fnOn func(worker int)) *Work {
	e := p.env
	e.workDispatched.Add(1)
	if e.workers <= 1 {
		e.workMaxInFlight.CompareAndSwap(0, 1)
		t0 := time.Now()
		if fnOn != nil {
			fnOn(0)
		} else {
			fn()
		}
		e.workBusyNs.Add(int64(time.Since(t0)))
		return joined
	}
	var w *Work
	if n := len(e.freeWork); n > 0 {
		w = e.freeWork[n-1]
		e.freeWork = e.freeWork[:n-1]
	} else {
		slab := make([]Work, workSlab)
		for i := range slab[1:] {
			e.freeWork = append(e.freeWork, &slab[i+1])
		}
		w = &slab[0]
	}
	w.p, w.fn, w.fnOn = p, fn, fnOn
	w.done.Add(1)
	p.unjoined++
	e.pendingWork++
	if e.pool == nil {
		e.startWorkers()
	}
	e.pool.put(w)
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
// it. The handle is dead once Wait returns. Waiting on a handle from the
// inline path (or from Do) is a no-op.
func (w *Work) Wait() {
	if w.p == nil {
		return
	}
	w.done.Wait()
	p, err := w.p, w.err
	w.p, w.fn, w.fnOn, w.err = nil, nil, nil, nil
	p.unjoined--
	p.env.pendingWork--
	p.env.freeWork = append(p.env.freeWork, w)
	if err != nil {
		panic(err)
	}
}
