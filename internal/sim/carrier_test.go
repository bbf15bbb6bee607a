package sim

import (
	"errors"
	"runtime"
	"testing"
)

// Carriers: a process runs on the coroutine its predecessor parked, and a
// carrier ends, never to park again, with a process that panics or is
// stopped. None outlives its Run.

// parkedCarriers returns the length of e's parked list.
func parkedCarriers(e *Env) int {
	n := 0
	for c := e.parked; c != nil; c = c.below {
		n++
	}
	return n
}

func TestPanicOnReusedCarrierEndsTheRun(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom on a reused carrier")
	e := New()
	var first *carrier
	unwound := 0
	e.Go("blocked", func(p *Proc) {
		defer func() { unwound++ }()
		e.NewTrigger("never").Wait(p)
	})
	e.Go("first", func(p *Proc) { first = p.c })
	e.Go("second", func(p *Proc) {
		p.Sleep(Second)
		if p.c != first || parkedCarriers(e) != 0 {
			t.Errorf("second runs on %p with %d parked, want first's %p and none", p.c, parkedCarriers(e), first)
		}
		panic(boom)
	})
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Errorf("Run panicked with %v, want the process's own value", r)
			}
		}()
		e.Run()
	}()
	if unwound != 1 || e.LiveCount() != 0 || e.parked != nil {
		t.Fatalf("after the panic: %d of 1 blocked processes unwound, %d live, %d parked", unwound, e.LiveCount(), parkedCarriers(e))
	}
	goroutinesSettleAt(t, before)
}

// A process stopped while blocked — by the deadlock cleanup, or by end from
// another process — unwinds and takes its carrier with it, where one whose
// body returned parks.
func TestStoppedProcessEndsItsCarrier(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	never := e.NewTrigger("never")
	unwound := 0
	var victim *Proc
	for _, name := range []string{"exits-a", "exits-b"} {
		e.Go(name, func(p *Proc) { p.Yield() }) // both carriers park at 0
	}
	victim = e.Go("victim", func(p *Proc) {
		defer func() { unwound++ }()
		never.Wait(p)
	})
	e.Go("stopper", func(p *Proc) {
		p.Sleep(Second)
		parked, live := parkedCarriers(e), e.LiveCount()
		e.end(victim)
		if unwound != 1 || parkedCarriers(e) != parked || e.LiveCount() != live-1 {
			t.Errorf("after end: %d unwound, %d parked, %d live; want 1, %d, %d", unwound, parkedCarriers(e), e.LiveCount(), parked, live-1)
		}
		never.Wait(p) // left for the deadlock cleanup
	})
	e.Go("deadlocked", func(p *Proc) {
		defer func() { unwound++ }()
		never.Wait(p)
	})
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("Run returned, want the deadlock panic")
			}
		}()
		e.Run()
	}()
	if unwound != 2 || e.LiveCount() != 0 || e.parked != nil {
		t.Fatalf("after the deadlock: %d of 2 unwound, %d live, %d parked", unwound, e.LiveCount(), parkedCarriers(e))
	}
	goroutinesSettleAt(t, before)
}

// Carriers belong to a Run: the next Run on the same Env builds its own,
// starting from the Env's first.
func TestSecondRunStartsWithNoParkedCarriers(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	for i := 0; i < 4; i++ {
		e.Go("round1", func(p *Proc) { p.Sleep(Duration(i) * Second) })
	}
	e.Run()
	if e.parked != nil || e.first.next != nil {
		t.Fatalf("after the first run: %d parked, first carrier kept", parkedCarriers(e))
	}
	goroutinesSettleAt(t, before)

	var firstC, childC *carrier
	e.Go("round2", func(p *Proc) {
		firstC = p.c
		if e.parked != nil {
			t.Errorf("second run starts with %d parked carriers", parkedCarriers(e))
		}
		e.Go("child", func(c *Proc) { childC = c.c })
		p.Yield()
	})
	e.Run()
	if firstC != &e.first || childC == nil || childC == firstC {
		t.Fatalf("second run: first process on %p (want the Env's own %p), child on %p", firstC, &e.first, childC)
	}
	goroutinesSettleAt(t, before)
}
