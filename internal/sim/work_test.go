package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// With the pool disabled, StartWork must run the closure inline, before it
// returns, on the submitting goroutine.
func TestStartWorkInlineWhenSerial(t *testing.T) {
	e := New()
	ran := false
	e.Go("p", func(p *Proc) {
		w := p.StartWork(func() { ran = true })
		if !ran {
			t.Error("StartWork did not run closure inline with pool disabled")
		}
		w.Wait()
	})
	e.Run()
	if e.Workers() != 1 {
		t.Errorf("Workers() = %d, want 1 by default", e.Workers())
	}
}

// With the pool enabled, submitted closures run concurrently but never more
// than the configured width at once, and Wait observes their effects.
func TestStartWorkBoundedConcurrency(t *testing.T) {
	e := New()
	e.SetWorkers(3)
	if e.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", e.Workers())
	}
	const n = 24
	var inFlight, maxSeen atomic.Int64
	results := make([]int, n)
	e.Go("p", func(p *Proc) {
		works := make([]*Work, n)
		for i := range works {
			i := i
			works[i] = p.StartWork(func() {
				cur := inFlight.Add(1)
				for {
					old := maxSeen.Load()
					if cur <= old || maxSeen.CompareAndSwap(old, cur) {
						break
					}
				}
				results[i] = i * i
				inFlight.Add(-1)
			})
		}
		for _, w := range works {
			w.Wait()
		}
		for i, r := range results {
			if r != i*i {
				t.Errorf("results[%d] = %d, want %d", i, r, i*i)
			}
		}
	})
	e.Run()
	if got := maxSeen.Load(); got > 3 {
		t.Errorf("max in-flight closures = %d, want <= 3", got)
	}
}

// Joining work must not advance virtual time or consume event sequence
// numbers: a run that dispatches work interleaved with sleeps must replay
// the exact virtual schedule of a serial run.
func TestWorkJoinHasNoVirtualEffect(t *testing.T) {
	schedule := func(workers int) string {
		e := New()
		e.SetWorkers(workers)
		var log strings.Builder
		for i := 0; i < 4; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				sum := 0
				w := p.StartWork(func() {
					for k := 0; k < 1000*(i+1); k++ {
						sum += k
					}
				})
				p.Sleep(Duration(i+1) * Millisecond)
				w.Wait()
				fmt.Fprintf(&log, "%s@%v sum=%d;", p.name, p.Now(), sum)
			})
		}
		e.Run()
		return log.String()
	}
	serial, parallel := schedule(1), schedule(4)
	if serial != parallel {
		t.Errorf("virtual schedule diverged:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// A panic inside a pooled closure must surface through Wait on the
// submitting process and out of Run, like any process failure.
func TestWorkPanicPropagates(t *testing.T) {
	e := New()
	e.SetWorkers(2)
	e.Go("p", func(p *Proc) {
		w := p.StartWork(func() { panic("boom in worker") })
		w.Wait()
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic")
		}
		if fmt.Sprint(r) != "boom in worker" {
			t.Fatalf("Run panicked with %v, want the closure's panic", r)
		}
	}()
	e.Run()
}

// A process that exits without joining its work is a bug the simulator must
// catch: the closure could still be mutating captured state after the
// process's results were consumed.
func TestUnjoinedWorkPanics(t *testing.T) {
	e := New()
	e.SetWorkers(2)
	e.Go("leaky", func(p *Proc) {
		p.StartWork(func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on unjoined work")
		}
		if !strings.Contains(fmt.Sprint(r), "unjoined") {
			t.Fatalf("Run panicked with %v, want an unjoined-work diagnostic", r)
		}
	}()
	e.Run()
}

// Do returns an already-joined handle; waiting on it (even repeatedly) is a
// no-op, matching the handles StartWork returns on the inline path.
func TestDoIsAlreadyJoined(t *testing.T) {
	ran := false
	w := Do(func() { ran = true })
	if !ran {
		t.Fatal("Do did not run closure inline")
	}
	w.Wait()
	w.Wait()
}

// WorkStats must count dispatches on both paths, measure aggregate closure
// time, and never report more in flight than the configured width.
func TestWorkStats(t *testing.T) {
	for _, workers := range []int{1, 3} {
		e := New()
		e.SetWorkers(workers)
		e.Go("p", func(p *Proc) {
			works := make([]*Work, 6)
			for i := range works {
				works[i] = p.StartWork(func() {
					s := 0
					for k := 0; k < 1_000_000; k++ {
						s += k
					}
					_ = s
				})
			}
			for _, w := range works {
				w.Wait()
			}
		})
		e.Run()
		ws := e.WorkStats()
		if ws.Dispatched != 6 {
			t.Errorf("workers=%d: Dispatched = %d, want 6", workers, ws.Dispatched)
		}
		if ws.Busy <= 0 {
			t.Errorf("workers=%d: Busy = %v, want > 0", workers, ws.Busy)
		}
		if ws.MaxInFlight > int64(workers) {
			t.Errorf("workers=%d: MaxInFlight = %d exceeds pool width", workers, ws.MaxInFlight)
		}
		if workers == 1 && ws.MaxInFlight != 1 {
			t.Errorf("serial run reported a peak of %d in flight, want 1 (inline path)", ws.MaxInFlight)
		}
	}
	var acc WorkStats
	acc.Add(WorkStats{Dispatched: 2, MaxInFlight: 3, Busy: 5})
	acc.Add(WorkStats{Dispatched: 1, MaxInFlight: 2, Busy: 7})
	if acc.Dispatched != 3 || acc.MaxInFlight != 3 || acc.Busy != 12 {
		t.Errorf("Add folded to %+v", acc)
	}
}

// SetWorkers during Run is a determinism hazard and must panic.
func TestSetWorkersDuringRunPanics(t *testing.T) {
	e := New()
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("SetWorkers during Run did not panic")
			}
		}()
		p.env.SetWorkers(4)
	})
	e.Run()
}

// The inline path hands every caller the same already-joined handle: a
// serial run dispatches once per chunk and must not allocate to do it.
func TestInlineWorkAllocatesNothing(t *testing.T) {
	e := New()
	n := 0
	fn := func() { n++ }
	e.Go("p", func(p *Proc) {
		if avg := testing.AllocsPerRun(100, func() { p.StartWork(fn).Wait() }); avg != 0 {
			t.Errorf("inline StartWork allocates %.1f/op, budget 0", avg)
		}
	})
	e.Run()
	if avg := testing.AllocsPerRun(100, func() { Do(fn).Wait() }); avg != 0 {
		t.Errorf("Do allocates %.1f/op, budget 0", avg)
	}
	if n != 2*101 {
		t.Fatalf("closure ran %d times, want %d", n, 2*101)
	}
}

// A warm pooled dispatch recycles its handle and queue slot: nothing is
// allocated beyond the closure the caller brings.
func TestPooledWorkAllocatesNothing(t *testing.T) {
	e := New()
	e.SetWorkers(2)
	n := 0
	fn := func() { n++ }
	fnOn := func(int) { n++ }
	e.Go("p", func(p *Proc) {
		if avg := testing.AllocsPerRun(100, func() { p.StartWork(fn).Wait() }); avg != 0 {
			t.Errorf("pooled StartWork + Wait allocates %.1f/op, budget 0", avg)
		}
		if avg := testing.AllocsPerRun(100, func() { p.StartWorkOn(fnOn).Wait() }); avg != 0 {
			t.Errorf("pooled StartWorkOn + Wait allocates %.1f/op, budget 0", avg)
		}
	})
	e.Run()
	if n != 2*101 {
		t.Fatalf("closure ran %d times, want %d", n, 2*101)
	}
}

// goroutinesSettleAt waits for the goroutine count to come back down to
// want: a worker that has signalled its exit is still counted until the
// scheduler retires it.
func goroutinesSettleAt(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want the %d from before the run", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// The workers belong to a Run: they are gone when it returns, when a process
// panics with closures still queued and executing, and a later Run on the
// same Env starts its own.
func TestWorkersStopWithRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	e.SetWorkers(3)
	for round := 0; round < 2; round++ {
		sum := 0
		e.Go("p", func(p *Proc) {
			w := p.StartWork(func() { sum = 42 })
			p.Sleep(Millisecond)
			w.Wait()
		})
		e.Run()
		if sum != 42 {
			t.Fatalf("round %d: closure did not run", round)
		}
		goroutinesSettleAt(t, before)
	}

	e = New()
	e.SetWorkers(2)
	release := make(chan struct{})
	e.Go("dispatcher", func(p *Proc) {
		for i := 0; i < 8; i++ { // two execute, six stay queued
			p.StartWork(func() { <-release })
		}
		p.Sleep(Second)
	})
	e.Go("failing", func(p *Proc) {
		p.Sleep(Millisecond)
		close(release)
		panic("process failed")
	})
	func() {
		defer func() {
			if r := recover(); fmt.Sprint(r) != "process failed" {
				t.Errorf("Run panicked with %v, want the process's panic", r)
			}
		}()
		e.Run()
	}()
	goroutinesSettleAt(t, before)
}

// StartWorkOn hands each closure a worker index below Workers() that no two
// closures executing at the same time share — what lets state be owned by
// the worker. Run it under -race: the per-worker slots are unsynchronized.
func TestStartWorkOnWorkersAreExclusive(t *testing.T) {
	const workers, n = 4, 200
	e := New()
	e.SetWorkers(workers)
	var busy [workers]atomic.Int32
	var slots [workers]int
	e.Go("p", func(p *Proc) {
		works := make([]*Work, n)
		for i := range works {
			works[i] = p.StartWorkOn(func(worker int) {
				if busy[worker].Add(1) != 1 {
					t.Errorf("worker %d executes two closures at once", worker)
				}
				slots[worker]++
				runtime.Gosched()
				busy[worker].Add(-1)
			})
		}
		for _, w := range works {
			w.Wait()
		}
	})
	e.Run()
	total := 0
	for _, c := range slots {
		total += c
	}
	if total != n {
		t.Errorf("%d closures ran, want %d", total, n)
	}

	e = New() // pool disabled: the submitting goroutine is worker 0
	e.Go("p", func(p *Proc) {
		p.StartWorkOn(func(worker int) {
			if worker != 0 {
				t.Errorf("inline closure ran as worker %d, want 0", worker)
			}
		}).Wait()
	})
	e.Run()
}

// A closure that ends its goroutine (t.FailNow from a helper, say) must
// neither hang its join nor cost the pool a worker.
func TestWorkerSurvivesGoexit(t *testing.T) {
	e := New()
	e.SetWorkers(2)
	ran := 0
	e.Go("p", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.StartWork(runtime.Goexit).Wait()
		}
		works := []*Work{p.StartWork(func() { ran++ }), p.StartWork(func() {})}
		for _, w := range works {
			w.Wait()
		}
	})
	e.Run()
	if ran != 1 {
		t.Fatalf("closure after the Goexits ran %d times, want 1", ran)
	}
}
