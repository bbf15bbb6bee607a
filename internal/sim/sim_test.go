package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockAdvancesThroughSleep(t *testing.T) {
	e := New()
	var at []Time
	e.Go("a", func(p *Proc) {
		p.Sleep(3 * Second)
		at = append(at, p.Now())
		p.Sleep(2 * Second)
		at = append(at, p.Now())
	})
	e.Run()
	want := []Time{Time(3 * Second), Time(5 * Second)}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("timestamps = %v, want %v", at, want)
	}
	if e.Now() != Time(5*Second) {
		t.Fatalf("final time = %v, want 5s", e.Now())
	}
}

func TestSameInstantEventsRunInSpawnOrder(t *testing.T) {
	e := New()
	var order []string
	for _, name := range []string{"p1", "p2", "p3"} {
		name := name
		e.Go(name, func(p *Proc) {
			order = append(order, name)
			p.Sleep(Second)
			order = append(order, name+"-end")
		})
	}
	e.Run()
	want := []string{"p1", "p2", "p3", "p1-end", "p2-end", "p3-end"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := New()
	e.Go("a", func(p *Proc) {
		p.Sleep(-5 * Second)
		if p.Now() != 0 {
			t.Errorf("time moved on negative sleep: %v", p.Now())
		}
	})
	e.Run()
}

func TestSpawnFromRunningProcess(t *testing.T) {
	e := New()
	var got []string
	e.Go("parent", func(p *Proc) {
		p.Sleep(Second)
		p.env.Go("child", func(c *Proc) {
			got = append(got, fmt.Sprintf("child@%v", c.Now()))
			c.Sleep(Second)
			got = append(got, fmt.Sprintf("child-end@%v", c.Now()))
		})
		p.Sleep(Second)
		got = append(got, fmt.Sprintf("parent@%v", p.Now()))
	})
	e.Run()
	// At t=2s the parent's wake event was scheduled (at t=1s, when it slept)
	// before the child's, so the parent runs first — FIFO on schedule order.
	want := []string{"child@1.000s", "parent@2.000s", "child-end@2.000s"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestResourceSerializesContenders(t *testing.T) {
	e := New()
	r := e.NewResource("disk", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 1, Second)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(Second), Time(2 * Second), Time(3 * Second)}
	if !reflect.DeepEqual(ends, want) {
		t.Fatalf("ends = %v, want %v", ends, want)
	}
}

func TestResourceFIFOGrantOrder(t *testing.T) {
	e := New()
	r := e.NewResource("r", 2)
	var order []string
	// First holder takes both units for 1s; then three waiters of 1 unit
	// each must be granted in arrival order.
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(Second)
		r.Release(2)
	})
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(p *Proc) {
			p.Yield() // let holder acquire first
			r.Acquire(p, 1)
			order = append(order, name)
			p.Sleep(Second)
			r.Release(1)
		})
	}
	e.Run()
	if !reflect.DeepEqual(order, []string{"w1", "w2", "w3"}) {
		t.Fatalf("grant order = %v", order)
	}
}

func TestResourceLargeRequestNotStarved(t *testing.T) {
	// A 2-unit request at the head of the queue must block later 1-unit
	// requests (strict FIFO), so it cannot be starved.
	e := New()
	r := e.NewResource("r", 2)
	var got []string
	e.Go("small0", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(Second)
		r.Release(1)
	})
	e.Go("big", func(p *Proc) {
		p.Yield()
		r.Acquire(p, 2)
		got = append(got, fmt.Sprintf("big@%v", p.Now()))
		p.Sleep(Second)
		r.Release(2)
	})
	e.Go("small1", func(p *Proc) {
		p.Yield()
		p.Yield()
		r.Acquire(p, 1)
		got = append(got, fmt.Sprintf("small1@%v", p.Now()))
		r.Release(1)
	})
	e.Run()
	want := []string{"big@1.000s", "small1@2.000s"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestResourceBusyIntegral(t *testing.T) {
	e := New()
	r := e.NewResource("cpu", 4)
	e.Go("a", func(p *Proc) { r.Use(p, 2, 10*Second) })
	e.Go("b", func(p *Proc) { r.Use(p, 1, 4*Second) })
	e.Run()
	// 2 units x 10s + 1 unit x 4s = 24 unit-seconds.
	if got := r.BusyIntegral(); got != 24 {
		t.Fatalf("busy integral = %v, want 24", got)
	}
}

// queueIntegral integrates the waiting units that r's OnChange hook
// reports over virtual time — how a cluster node turns the hook into iowait.
// It returns the unit-seconds of waiting accrued up to the last change.
func queueIntegral(r *Resource) *float64 {
	total, last, lastWaiting := new(float64), Time(0), 0
	inner := r.OnChange
	r.OnChange = func(now Time, inUse, waiting int) {
		*total += float64(lastWaiting) * now.Sub(last).Seconds()
		last, lastWaiting = now, waiting
		if inner != nil {
			inner(now, inUse, waiting)
		}
	}
	return total
}

func TestResourceQueueIntegral(t *testing.T) {
	e := New()
	r := e.NewResource("disk", 1)
	queued := queueIntegral(r)
	e.Go("a", func(p *Proc) { r.Use(p, 1, 2*Second) })
	e.Go("b", func(p *Proc) { r.Use(p, 1, 2*Second) }) // waits 2s
	e.Run()
	if *queued != 2 {
		t.Fatalf("queue integral = %v, want 2", *queued)
	}

	// Long queue: the integral must equal each waiter's units x its own time
	// in the queue, summed.
	lq := runLongQueue(t)
	if math.Abs(*lq.hooked-lq.queued) > 1e-9 {
		t.Fatalf("long queue: queue integral = %v, want %v", *lq.hooked, lq.queued)
	}
}

// longQueue is the outcome of runLongQueue: the resource, the busy and
// queue integrals recomputed from what each process saw, and the queue
// integral read from the OnChange hook.
type longQueue struct {
	r            *Resource
	held, queued float64
	hooked       *float64
}

// runLongQueue drives 240 processes of mixed unit counts through a 4-unit
// resource so that most of them queue at once, and checks after every state
// change that Waiting() — a running total — equals the sum over the queue.
func runLongQueue(t *testing.T) *longQueue {
	t.Helper()
	e := New()
	lq := &longQueue{r: e.NewResource("long", 4)}
	r, changes, deepest := lq.r, 0, 0
	r.OnChange = func(now Time, inUse, waiting int) {
		sum := 0
		for _, w := range r.waiters[r.head:] {
			sum += w.n
		}
		if waiting != sum || r.Waiting() != sum {
			t.Fatalf("at %v: OnChange waiting=%d Waiting()=%d, queue sums to %d", now, waiting, r.Waiting(), sum)
		}
		changes++
		deepest = max(deepest, len(r.waiters)-r.head)
	}
	lq.hooked = queueIntegral(r)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 240; i++ {
		units := 1 + rng.Intn(4)
		arrive := Duration(rng.Intn(20)) * Millisecond
		hold := Duration(1+rng.Intn(30)) * Millisecond
		e.Go(fmt.Sprintf("q%d", i), func(p *Proc) {
			p.Sleep(arrive)
			asked := p.Now()
			if i%2 == 0 {
				r.Acquire(p, units)
				lq.queued += float64(units) * p.Now().Sub(asked).Seconds()
				p.Sleep(hold)
				r.Release(units)
			} else {
				r.Use(p, units, hold)
				lq.queued += float64(units) * (p.Now().Sub(asked) - hold).Seconds()
			}
			lq.held += float64(units) * hold.Seconds()
		})
	}
	e.Run()
	if deepest < 200 || changes < 480 {
		t.Fatalf("long queue too shallow: deepest %d waiters, %d changes", deepest, changes)
	}
	if r.Waiting() != 0 || r.InUse() != 0 {
		t.Fatalf("after run: %d waiting, %d in use", r.Waiting(), r.InUse())
	}
	return lq
}

func TestResourceOnChangeHook(t *testing.T) {
	e := New()
	r := e.NewResource("disk", 1)
	var events []string
	r.OnChange = func(now Time, inUse, waiting int) {
		events = append(events, fmt.Sprintf("%v:%d/%d", now, inUse, waiting))
	}
	e.Go("a", func(p *Proc) { r.Use(p, 1, Second) })
	e.Go("b", func(p *Proc) { r.Use(p, 1, Second) })
	e.Run()
	joined := strings.Join(events, " ")
	// b must be observed waiting at t=0 while a holds the unit.
	if !strings.Contains(joined, "0.000s:1/1") {
		t.Fatalf("missing waiting observation in %q", joined)
	}
}

func TestTriggerBroadcastWakesAllWaiters(t *testing.T) {
	e := New()
	tr := e.NewTrigger("ready")
	woke := 0
	for i := 0; i < 5; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			tr.Wait(p)
			woke++
			if p.Now() != Time(3*Second) {
				t.Errorf("waiter woke at %v, want 3s", p.Now())
			}
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Sleep(3 * Second)
		tr.Broadcast()
	})
	e.Run()
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestBroadcastWithNoWaitersIsNoop(t *testing.T) {
	e := New()
	tr := e.NewTrigger("t")
	e.Go("s", func(p *Proc) { tr.Broadcast(); p.Sleep(Second) })
	e.Run() // must not panic or deadlock
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	e := New()
	tr := e.NewTrigger("never")
	e.Go("stuck", func(p *Proc) { tr.Wait(p) })
	e.Run()
}

func TestOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	e := New()
	r := e.NewResource("r", 1)
	e.Go("a", func(p *Proc) { r.Release(1) })
	e.Run()
}

func TestAcquireBeyondCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := New()
	r := e.NewResource("r", 1)
	e.Go("a", func(p *Proc) { r.Acquire(p, 2) })
	e.Run()
}

func TestDurationConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Fatalf("Seconds() = %v", got)
	}
	if got := Time(90 * Second).Seconds(); got != 90 {
		t.Fatalf("Time.Seconds() = %v", got)
	}
}

// TestDeterminism runs a randomized workload twice with the same seed and
// requires identical traces.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		r := e.NewResource("r", 3)
		var trace []string
		for i := 0; i < 20; i++ {
			i := i
			units := 1 + rng.Intn(3)
			d := Duration(rng.Intn(1000)) * Millisecond
			start := Duration(rng.Intn(2000)) * Millisecond
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(start)
				r.Acquire(p, units)
				p.Sleep(d)
				r.Release(units)
				trace = append(trace, fmt.Sprintf("p%d@%v", i, p.Now()))
			})
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic traces:\n%v\n%v", a, b)
	}
}

// Property: for any schedule of exclusive users of a unit resource, the
// total busy integral equals the sum of hold durations, and completion time
// is at least the max individual finish.
func TestResourceBusyIntegralProperty(t *testing.T) {
	f := func(holdsMs []uint16) bool {
		if len(holdsMs) > 50 {
			holdsMs = holdsMs[:50]
		}
		e := New()
		r := e.NewResource("r", 1)
		var totalHold Duration
		for i, h := range holdsMs {
			d := Duration(h%2000) * Millisecond
			totalHold += d
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) { r.Use(p, 1, d) })
		}
		e.Run()
		got := r.BusyIntegral()
		want := totalHold.Seconds()
		return math.Abs(got-want) < 1e-9 && e.Now() == Time(totalHold)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if lq := runLongQueue(t); math.Abs(lq.r.BusyIntegral()-lq.held) > 1e-9 {
		t.Fatalf("long queue: busy integral = %v, want %v", lq.r.BusyIntegral(), lq.held)
	}
}

func TestWaitTimeoutBroadcastWins(t *testing.T) {
	e := New()
	tr := e.NewTrigger("cond")
	var fired bool
	var at Time
	e.Go("waiter", func(p *Proc) {
		fired = tr.WaitTimeout(p, 10*Second)
		at = p.Now()
	})
	e.Go("signaler", func(p *Proc) {
		p.Sleep(2 * Second)
		tr.Broadcast()
	})
	e.Run()
	if !fired {
		t.Error("WaitTimeout reported timeout despite broadcast at 2s")
	}
	if at != Time(2*Second) {
		t.Errorf("woke at %v, want 2s", at)
	}
	// The canceled timer event must not have extended virtual time to 10s.
	if e.Now() != Time(2*Second) {
		t.Errorf("sim ended at %v, want 2s (stale timer extended the run)", e.Now())
	}
}

func TestWaitTimeoutTimerWins(t *testing.T) {
	e := New()
	tr := e.NewTrigger("cond")
	var fired bool
	e.Go("waiter", func(p *Proc) {
		fired = tr.WaitTimeout(p, 3*Second)
	})
	e.Run()
	if fired {
		t.Error("WaitTimeout reported broadcast with no signaler")
	}
	if e.Now() != Time(3*Second) {
		t.Errorf("sim ended at %v, want 3s", e.Now())
	}
}

func TestWaitTimeoutLateBroadcastDoesNotDoubleResume(t *testing.T) {
	e := New()
	tr := e.NewTrigger("cond")
	wakes := 0
	e.Go("waiter", func(p *Proc) {
		tr.WaitTimeout(p, 1*Second) // times out
		wakes++
		p.Sleep(5 * Second) // a broadcast at 2s must not cut this short
		wakes++
	})
	e.Go("signaler", func(p *Proc) {
		p.Sleep(2 * Second)
		tr.Broadcast()
	})
	e.Run()
	if wakes != 2 {
		t.Errorf("wakes = %d, want 2", wakes)
	}
	if e.Now() != Time(6*Second) {
		t.Errorf("sim ended at %v, want 6s", e.Now())
	}
}

func TestWaitTimeoutMixedWaiters(t *testing.T) {
	e := New()
	tr := e.NewTrigger("cond")
	var plainWoke, timedFired bool
	e.Go("plain", func(p *Proc) {
		tr.Wait(p)
		plainWoke = true
	})
	e.Go("timed", func(p *Proc) {
		timedFired = tr.WaitTimeout(p, 30*Second)
	})
	e.Go("signaler", func(p *Proc) {
		p.Sleep(1 * Second)
		tr.Broadcast()
	})
	e.Run()
	if !plainWoke || !timedFired {
		t.Errorf("plainWoke=%v timedFired=%v, want both true", plainWoke, timedFired)
	}
	if e.Now() != Time(1*Second) {
		t.Errorf("sim ended at %v, want 1s", e.Now())
	}
}
