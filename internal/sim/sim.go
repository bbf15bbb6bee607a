// Package sim provides a deterministic discrete-event simulation engine.
//
// The engines in this repository do real data processing (real records,
// real sorts, real hash tables) but run inside a simulated cluster whose
// notion of time is virtual. sim supplies that virtual time: processes run
// on runtime coroutines (iter.Pull) and advance the clock only through
// explicit operations (Sleep, resource acquisition), and exactly one process
// executes at any instant, which makes every run fully deterministic and free
// of data races by construction. Run resumes them in (at, seq) order by a
// direct switch, which a process that is its own next event skips (see
// Sleep). A coroutine whose process has returned parks and carries the next
// process to start (see carrier), so a spawn costs its Proc alone.
package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"
	"sync/atomic"
)

// Time is an absolute instant in virtual nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds returns d expressed in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

func (d Duration) String() string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// Seconds converts a floating-point number of seconds to a Duration.
func Seconds(s float64) Duration {
	if math.IsInf(s, 1) {
		return Duration(math.MaxInt64)
	}
	return Duration(s * float64(Second))
}

// event is a scheduled resumption of a process.
type event struct {
	at       Time
	seq      uint64
	p        *Proc
	canceled *bool // optional cancellation flag shared with the scheduler
}

// eventHeap is a binary min-heap ordered by (at, seq). It is typed rather
// than backed by container/heap so that pushing an event does not box it in
// an interface{} — the event queue is the single hottest allocation site in
// the simulator, and the slice's capacity is reused across the whole run.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the *Proc reference so it can be collected
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Env is a simulation environment: a virtual clock plus the set of processes
// advancing it. The zero value is not usable; call New.
type Env struct {
	now    Time
	seq    uint64
	events eventHeap
	live   map[*Proc]struct{}
	inRun  bool
	// resources lists every Resource ever created on this environment, in
	// creation order, so leak audits can verify all units were released.
	resources []*Resource
	// The Run's carriers (see carrier): first is the storage of the first,
	// so a Run of one process allocates no more than its coroutine, and
	// parked heads the list of those waiting for a process to carry.
	first  carrier
	parked *carrier
	// Worker pool for pure data work (see work.go). workers <= 1 means
	// inline; pool is the running Run's goroutines, nil until its first
	// pooled dispatch; pendingWork counts dispatched-but-unjoined closures
	// across all processes so Run can assert the pool drained; freeWork
	// recycles joined handles. All four are touched on the event loop only.
	workers     int
	pool        *workPool
	pendingWork int
	freeWork    []*Work
	// Pool observability (WorkStats): updated from worker goroutines, hence
	// atomic; real-time only, never read back into simulation state.
	workDispatched  atomic.Int64
	workInFlight    atomic.Int64
	workMaxInFlight atomic.Int64
	workBusyNs      atomic.Int64
}

// New returns a fresh simulation environment at time zero.
func New() *Env { return &Env{live: make(map[*Proc]struct{})} }

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Resources returns every resource created on this environment in creation
// order. Leak audits use it to assert that nothing is held or queued once a
// run completes.
func (e *Env) Resources() []*Resource { return e.resources }

// LiveCount returns the number of processes spawned and not yet exited. Run
// leaves it at zero however it ends (it panics on deadlock, and ends what a
// panic strands), so a nonzero value after Run means leaked procs.
func (e *Env) LiveCount() int { return len(e.live) }

// after returns the instant d from now, never earlier than now: d may be
// negative, and now+d overflows for the "forever" durations.
func (e *Env) after(d Duration) Time { return max(e.now, e.now.Add(d)) }

// schedule queues a resumption of p; one with a non-nil canceled is dropped,
// p unresumed, if *canceled is set by the time it reaches the heap head.
func (e *Env) schedule(p *Proc, at Time, canceled *bool) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, p: p, canceled: canceled})
}

// blockKind classifies what a blocked process is waiting for. Together with
// blockName/blockArg it carries enough to render a deadlock diagnostic
// without formatting a string on every block — blocking is the single most
// frequent operation in the simulator, and the description is only ever read
// on the (fatal) deadlock path.
type blockKind uint8

const (
	blockNone blockKind = iota
	blockSleep
	blockTrigger
	blockTriggerTimeout
	blockResource
)

// Proc is a simulation process. All blocking methods must be called from the
// goroutine running the process body (from any other, a runtime panic).
type Proc struct {
	env  *Env
	name string
	// fn is the body, until a carrier c takes the process at its first
	// resume and runs it; c is nil again once the body has returned.
	fn      func(p *Proc)
	c       *carrier
	stopped bool
	// What the process is waiting for; used in deadlock diagnostics and
	// formatted lazily (see blockedOn).
	blockKind blockKind
	blockName string
	blockArg  int64
	// granted is set by Resource.Release before rescheduling a waiter. It
	// lives on the process rather than the wait queue entry because a process
	// waits for at most one resource at a time, which lets the queue hold
	// plain values instead of per-wait heap allocations.
	granted bool
	// unjoined counts StartWork dispatches this process has not yet joined
	// with Work.Wait. Only the process's own goroutine touches it.
	unjoined int
}

// blockedOn renders the deadlock diagnostic for the current block reason.
func (p *Proc) blockedOn() string {
	switch p.blockKind {
	case blockSleep:
		return fmt.Sprintf("sleep %v", Duration(p.blockArg))
	case blockTrigger:
		return "trigger " + p.blockName
	case blockTriggerTimeout:
		return fmt.Sprintf("trigger %s (timeout %v)", p.blockName, Duration(p.blockArg))
	case blockResource:
		return fmt.Sprintf("resource %s (%d units)", p.blockName, p.blockArg)
	default:
		return "nothing"
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a process. It may be called before Run or from inside a running
// process; the new process starts at the current virtual time, after the
// caller next blocks.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn}
	e.live[p] = struct{}{}
	e.schedule(p, e.now, nil)
	return p
}

// carrier is a coroutine that runs processes one after another: a process
// takes a parked carrier, or a new one, at its first resume, and when its
// body returns the carrier parks to carry the next. A process suspends and
// resumes exactly as on a coroutine of its own, so which process runs when
// is unchanged; what a spawn no longer costs is a coroutine. Carriers belong
// to a Run: one whose process panics or is stopped ends with it, and Run
// stops the parked ones before it returns.
type carrier struct {
	// Run resumes the carrier with next and ends it with stop; the carrier
	// suspends with yield, which returns false once stopped.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc    // the process it carries; nil while parked
	below *carrier // the next one down Env's parked list
}

// carry hands p a parked carrier, or a new one, and returns it.
func (e *Env) carry(p *Proc) *carrier {
	c := e.parked
	if c != nil {
		e.parked, c.below = c.below, nil
	} else {
		c = &e.first
		if c.next != nil {
			c = &carrier{}
		}
		c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			for c.run(e) {
				c.below, e.parked = e.parked, c
				if !yield(struct{}{}) {
					return
				}
			}
		})
	}
	c.p, p.c = p, c
	return c
}

// run runs c's process until its body returns and reports whether c may
// carry another: not if the process was stopped. A stopped process unwinds
// by panic (see block), which run recovers. Any other panic ends the carrier
// and is left to iter.Pull, which re-raises it from next, on Run's goroutine.
func (c *carrier) run(e *Env) (reusable bool) {
	p := c.p
	defer func() {
		if p.stopped {
			_ = recover()
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	if p.unjoined != 0 {
		panic(fmt.Sprintf("sim: process %s exited with %d unjoined StartWork dispatches", p.name, p.unjoined))
	}
	delete(e.live, p)
	c.p, p.c = nil, nil
	return !p.stopped
}

// end ends p: a process suspended in a block unwinds from it, running its
// deferred calls, and its carrier ends with it; one never resumed just goes.
func (e *Env) end(p *Proc) {
	delete(e.live, p)
	if p.c != nil {
		p.c.stop()
	}
}

// Run executes events until none remain. It panics if processes are still
// blocked when the event queue drains (a deadlock) so that engine bugs
// surface loudly in tests, and re-raises a process's panic or Goexit on the
// caller's goroutine; either way it first unwinds and ends every other one,
// then stops the parked carriers and the worker goroutines StartWork
// started.
func (e *Env) Run() {
	if e.inRun {
		panic("sim: Run called reentrantly")
	}
	e.inRun = true
	defer func() {
		e.inRun = false
		for p := range e.live {
			e.end(p)
		}
		for c := e.parked; c != nil; c = e.parked {
			e.parked = c.below
			c.stop()
		}
		e.first = carrier{}
		e.stopWorkers()
	}()
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.canceled != nil && *ev.canceled {
			continue
		}
		e.now = ev.at
		c := ev.p.c
		if c == nil {
			c = e.carry(ev.p)
		}
		c.next()
	}
	if e.pendingWork != 0 {
		panic(fmt.Sprintf("sim: run drained with %d unjoined StartWork dispatches", e.pendingWork))
	}
	if len(e.live) > 0 {
		names := make([]string, 0, len(e.live))
		for p := range e.live {
			names = append(names, fmt.Sprintf("%s (waiting on %s)", p.name, p.blockedOn()))
		}
		sort.Strings(names)
		panic(fmt.Sprintf("sim: deadlock at %v: %d blocked processes: %v", e.now, len(names), names))
	}
}

// block suspends the process until some other agent schedules it again. The
// kind/name/arg triple describes the wait for deadlock diagnostics.
func (p *Proc) block(kind blockKind, name string, arg int64) {
	p.blockKind, p.blockName, p.blockArg = kind, name, arg
	if !p.c.yield(struct{}{}) {
		p.stopped = true
		panic("sim: process stopped") // recovered in carrier.run
	}
	p.blockKind, p.blockName, p.blockArg = blockNone, "", 0
}

// Sleep advances the process by d of virtual time. Negative durations are
// treated as zero (the process still yields, so other same-instant events
// run first).
//
// Self-wake fast path. Queuing the wake and suspending would have Run pop
// events in (at, seq) order until it reaches this one. If no live event is
// queued, or the earliest one is due strictly after this wake, the very next
// pop would be this wake and the very next resume this process: so take the
// sequence number the event would have had, move the clock and keep running
// — no heap traffic, no switch. A head due at the same instant was queued
// earlier, holds a smaller seq and must run first, so a tie takes the slow
// path. The resume order, and with it every trace, counter and makespan, is
// exactly that of a loop that always suspends.
func (p *Proc) Sleep(d Duration) {
	d = max(d, 0)
	e := p.env
	at := e.after(d)
	for len(e.events) > 0 && e.events[0].canceled != nil && *e.events[0].canceled {
		e.events.pop() // Run would skip it
	}
	if len(e.events) == 0 || at < e.events[0].at {
		e.seq++
		e.now = at
		return
	}
	e.schedule(p, at, nil)
	p.block(blockSleep, "", int64(d))
}

// Yield lets all other events scheduled at the current instant run before
// the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Trigger is a broadcast condition: processes Wait on it and are all
// released by the next Broadcast. It has no memory — a Broadcast with no
// waiters is a no-op — so callers must re-check their condition in a loop.
type Trigger struct {
	env     *Env
	name    string
	waiters []*Proc
	timed   []timedWaiter
}

// timedWaiter is a WaitTimeout caller. done is shared with the pending timer
// event: Broadcast sets it, which both tells the woken process the trigger
// fired and cancels the stale timer still sitting in the event heap.
type timedWaiter struct {
	p    *Proc
	done *bool
}

// NewTrigger returns a trigger bound to e.
func (e *Env) NewTrigger(name string) *Trigger {
	return &Trigger{env: e, name: name}
}

// Wait blocks p until the next Broadcast.
func (t *Trigger) Wait(p *Proc) {
	t.waiters = append(t.waiters, p)
	p.block(blockTrigger, t.name, 0)
}

// WaitTimeout blocks p until the next Broadcast or until d elapses,
// whichever comes first, and reports whether the broadcast fired. Only one
// resumption ever reaches p: Broadcast marks the waiter done before
// scheduling it, which cancels the timer event, and the timer path removes
// the waiter from the trigger before returning.
func (t *Trigger) WaitTimeout(p *Proc, d Duration) (fired bool) {
	d = max(d, 0)
	done := false
	t.env.schedule(p, t.env.after(d), &done)
	t.timed = append(t.timed, timedWaiter{p: p, done: &done})
	p.block(blockTriggerTimeout, t.name, int64(d))
	if done {
		return true
	}
	// Timed out: unregister so a later Broadcast doesn't resume us again.
	for i, w := range t.timed {
		if w.p == p {
			t.timed = append(t.timed[:i], t.timed[i+1:]...)
			break
		}
	}
	return false
}

// Broadcast wakes every current waiter at the current instant.
func (t *Trigger) Broadcast() {
	for _, w := range t.waiters {
		t.env.schedule(w, t.env.now, nil)
	}
	t.waiters = t.waiters[:0]
	for _, w := range t.timed {
		*w.done = true
		t.env.schedule(w.p, t.env.now, nil)
	}
	t.timed = t.timed[:0]
}
