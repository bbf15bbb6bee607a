package sim

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Event-loop invariant: the resume order is the (at, seq) order; a self-wake
// consumes its seq and performs no switch; ties go to the queued event.

func TestYieldRunsPendingSameInstantEventFirst(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield() // b's start event is queued at this very instant
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) { order = append(order, "b1") })
	e.Run()
	if want := []string{"a1", "b1", "a2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestWakeTyingHeapHeadLosesToIt(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(2 * Second) // queued: b has yet to start
		order = append(order, fmt.Sprintf("a@%v", p.Now()))
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(Second) // strictly before a's wake: self-wake
		if len(e.events) != 1 || p.Now() != Time(Second) {
			t.Errorf("b at %v with %d queued events, want 1.000s and only a's wake", p.Now(), len(e.events))
		}
		p.Sleep(Second) // ties a's wake, which was queued first
		order = append(order, fmt.Sprintf("b@%v", p.Now()))
	})
	e.Run()
	if want := []string{"a@2.000s", "b@2.000s"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestCanceledTimerAtHeapHead(t *testing.T) {
	e := New()
	tr := e.NewTrigger("cond")
	resumes := 0
	e.Go("waiter", func(p *Proc) {
		if !tr.WaitTimeout(p, 5*Second) {
			t.Error("WaitTimeout timed out despite the broadcast at 1s")
		}
		resumes++
		// The cancelled 5s timer is all that is queued: it must not hold the
		// self-wake back, and must not wake this process at 5s either.
		seq := e.seq
		p.Sleep(10 * Second)
		resumes++
		if p.Now() != Time(11*Second) || len(e.events) != 0 || e.seq != seq+1 {
			t.Errorf("after sleep: now %v, %d queued events, %d seqs consumed; want 11.000s, 0, 1",
				p.Now(), len(e.events), e.seq-seq)
		}
	})
	e.Go("signaler", func(p *Proc) {
		p.Sleep(Second)
		tr.Broadcast()
	})
	e.Run()
	if resumes != 2 || e.Now() != Time(11*Second) {
		t.Fatalf("resumes = %d, end = %v; want 2, 11.000s", resumes, e.Now())
	}
}

func TestLoneSleeperAdvancesClockExactly(t *testing.T) {
	const n = 1_000_000
	e := New()
	e.Go("lone", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(3 * Microsecond)
		}
	})
	e.Run()
	if e.Now() != Time(n*3*Microsecond) {
		t.Fatalf("clock = %v, want %v", e.Now(), Time(n*3*Microsecond))
	}
	// One seq for the spawn, one per sleep: a self-wake takes the number its
	// queued event would have had.
	if e.seq != n+1 || e.LiveCount() != 0 {
		t.Fatalf("seq = %d, live = %d; want %d, 0", e.seq, e.LiveCount(), n+1)
	}
}

func TestNestedPanicSurfacesWithOriginalValue(t *testing.T) {
	boom := errors.New("boom three levels down")
	e := New()
	e.Go("l1", func(p *Proc) {
		p.Sleep(Second)
		e.Go("l2", func(p *Proc) {
			p.Sleep(Second)
			e.Go("l3", func(p *Proc) {
				p.Sleep(Second)
				panic(boom)
			})
		})
	})
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("Run panicked with %v, want the process's own value", r)
		}
		if e.Now() != Time(3*Second) {
			t.Fatalf("panic surfaced at %v, want 3.000s", e.Now())
		}
	}()
	e.Run()
	t.Fatal("Run returned")
}

// t.FailNow is runtime.Goexit on the calling goroutine. Inside a process it
// must take the goroutine that called Run down with it — failing the test —
// not strand Run waiting on a process that will never yield.
func TestFailNowInsideProcessFailsTheTest(t *testing.T) {
	if os.Getenv("SIM_TEST_FAILNOW_CHILD") == "1" {
		e := New()
		e.Go("blocked", func(p *Proc) { e.NewTrigger("never").Wait(p) })
		e.Go("failing", func(p *Proc) {
			p.Sleep(Second)
			t.FailNow()
		})
		e.Run()
		fmt.Println("RUN RETURNED")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailNowInsideProcessFailsTheTest$", "-test.timeout=30s")
	cmd.Env = append(os.Environ(), "SIM_TEST_FAILNOW_CHILD=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child test run: err = %v, want a failing exit; output:\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, "--- FAIL: TestFailNowInsideProcessFailsTheTest") ||
		strings.Contains(s, "RUN RETURNED") || strings.Contains(s, "timed out") {
		t.Fatalf("child did not fail cleanly:\n%s", s)
	}
}

// When Run leaves by a panic, the processes still suspended are unwound
// (their deferred calls run) and their goroutines end.
func TestRunEndsSuspendedProcessesOnPanic(t *testing.T) {
	blocked := func(e *Env, unwound *int) {
		tr, r := e.NewTrigger("never"), e.NewResource("r", 1)
		for i := 0; i < 50; i++ {
			e.Go(fmt.Sprintf("w%02d", i), func(p *Proc) {
				defer func() { *unwound++ }()
				if i%2 == 0 {
					tr.Wait(p)
				} else {
					r.Acquire(p, 1) // w01 gets the unit, then waits too
					tr.Wait(p)
				}
			})
		}
	}
	recovered := func(e *Env) (r interface{}) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}
	before := runtime.NumGoroutine()

	var unwound int
	e := New()
	blocked(e, &unwound)
	msg := fmt.Sprint(recovered(e))
	if !strings.HasPrefix(msg, "sim: deadlock at 0.000s: 50 blocked processes: [w00 (waiting on trigger never) w01 (waiting on trigger never) w02 (waiting on trigger never) w03 (waiting on resource r (1 units)) ") {
		t.Fatalf("deadlock message changed: %s", msg)
	}
	if unwound != 50 || e.LiveCount() != 0 {
		t.Fatalf("after deadlock: %d of 50 processes unwound, %d live", unwound, e.LiveCount())
	}

	unwound = 0
	boom := errors.New("boom")
	e = New()
	blocked(e, &unwound)
	e.Go("failing", func(p *Proc) {
		p.Sleep(Second)
		e.Go("spawned-late", func(p *Proc) { t.Error("process started after the panic") })
		panic(boom)
	})
	if r := recovered(e); r != boom {
		t.Fatalf("Run panicked with %v, want the process's own value", r)
	}
	if unwound != 50 || e.LiveCount() != 0 {
		t.Fatalf("after process panic: %d of 50 processes unwound, %d live", unwound, e.LiveCount())
	}

	// A coroutine's goroutine is gone by the time stop returns; the retry
	// only rides out unrelated runtime goroutines winding down.
	goroutinesSettleAt(t, before)
}
