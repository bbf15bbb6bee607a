package sim

import "fmt"

// Resource is a capacity-limited, FIFO-granting resource: CPU cores on a
// node, the single request slot of a disk, a network link. Acquire blocks
// until the requested units are available; Release hands freed units to
// waiters in arrival order.
//
// The resource keeps two time integrals that metric samplers read:
// busy (units-in-use x time) and queue (waiting-units x time). Utilization
// of a window [a,b) is (busyIntegral(b)-busyIntegral(a)) / (cap x (b-a)).
type Resource struct {
	env  *Env
	name string
	cap  int

	inUse int
	// waiters is a FIFO queue stored by value: head indexes the next waiter
	// to grant, and entries are compacted in place rather than allocated per
	// blocked Acquire. waitingUnits is the sum of the queued requests, kept
	// running because every state change reads it (twice, with OnChange set).
	waiters      []resWaiter
	head         int
	waitingUnits int

	lastChange   Time
	busyIntegral float64 // unit-seconds of use

	// OnChange, if set, is called after every state change with the units in
	// use and the units waiting. Cluster nodes use it to maintain iowait
	// accounting across a node's devices.
	OnChange func(now Time, inUse, waiting int)
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource returns a resource with the given capacity and registers it
// with the environment so end-of-run leak audits can sweep every resource
// ever created.
func (e *Env) NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity must be positive, got %d", name, capacity))
	}
	r := &Resource{env: e, name: name, cap: capacity}
	e.resources = append(e.resources, r)
	return r
}

// Name returns the diagnostic name the resource was created with.
func (r *Resource) Name() string { return r.name }

// Cap returns the resource capacity in units.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Waiting returns the total units requested by blocked acquirers.
func (r *Resource) Waiting() int { return r.waitingUnits }

// advance accrues the integrals up to now. It must be called before any
// change to inUse or the waiter set.
func (r *Resource) advance() {
	now := r.env.now
	dt := now.Sub(r.lastChange).Seconds()
	if dt > 0 {
		r.busyIntegral += float64(r.inUse) * dt
	}
	r.lastChange = now
}

func (r *Resource) changed() {
	if r.OnChange != nil {
		r.OnChange(r.env.now, r.inUse, r.waitingUnits)
	}
}

// BusyIntegral returns unit-seconds of use accrued through the current time.
func (r *Resource) BusyIntegral() float64 {
	r.advance()
	return r.busyIntegral
}

// Acquire blocks p until n units are available and takes them.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.cap {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d of %q", n, r.cap, r.name))
	}
	r.advance()
	if r.head == len(r.waiters) && r.inUse+n <= r.cap {
		r.inUse += n
		r.changed()
		return
	}
	r.waiters = append(r.waiters, resWaiter{p: p, n: n})
	r.waitingUnits += n
	r.changed()
	p.granted = false
	p.block(blockResource, r.name, int64(n))
	if !p.granted {
		panic(fmt.Sprintf("sim: process %s woken without grant on %q", p.name, r.name))
	}
	p.granted = false
}

// Release returns n units and grants queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	r.advance()
	r.inUse -= n
	if r.inUse < 0 {
		panic(fmt.Sprintf("sim: over-release of %q", r.name))
	}
	for r.head < len(r.waiters) {
		w := r.waiters[r.head]
		if r.inUse+w.n > r.cap {
			break
		}
		r.inUse += w.n
		r.waitingUnits -= w.n
		w.p.granted = true
		r.waiters[r.head] = resWaiter{} // release the *Proc reference
		r.head++
		r.env.schedule(w.p, r.env.now, nil)
	}
	if r.head == len(r.waiters) {
		// Queue drained: rewind so the backing array is reused.
		r.waiters = r.waiters[:0]
		r.head = 0
	} else if r.head >= 64 && r.head*2 >= len(r.waiters) {
		// Compact occasionally so a never-empty queue cannot grow without
		// bound behind the head index.
		n := copy(r.waiters, r.waiters[r.head:])
		r.waiters = r.waiters[:n]
		r.head = 0
	}
	r.changed()
}

// Use acquires n units, holds them for d, and releases them.
func (r *Resource) Use(p *Proc, n int, d Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}
