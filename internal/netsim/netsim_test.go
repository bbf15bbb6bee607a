package netsim

import (
	"fmt"
	"math"
	"testing"

	"onepass/internal/sim"
)

func TestTransferTime(t *testing.T) {
	env := sim.New()
	n := New(env, 2, 100e6, sim.Millisecond)
	env.Go("x", func(p *sim.Proc) { n.Transfer(p, 0, 1, 50e6) })
	env.Run()
	want := 0.001 + 0.5
	if got := env.Now().Seconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
	if n.BytesTransferred() != 50e6 {
		t.Fatalf("bytes = %v", n.BytesTransferred())
	}
}

func TestLoopbackFree(t *testing.T) {
	env := sim.New()
	n := New(env, 2, 100e6, sim.Millisecond)
	env.Go("x", func(p *sim.Proc) { n.Transfer(p, 1, 1, 1e9) })
	env.Run()
	if env.Now() != 0 || n.BytesTransferred() != 0 {
		t.Fatal("loopback must be free and unaccounted")
	}
}

func TestReceiverIngressContention(t *testing.T) {
	// Two senders to one receiver: receiver ingress is the bottleneck, so
	// total time ~= sum of transfer times.
	env := sim.New()
	n := New(env, 3, 100e6, 0)
	for i := 0; i < 2; i++ {
		src := i
		env.Go(fmt.Sprintf("s%d", i), func(p *sim.Proc) { n.Transfer(p, src, 2, 50e6) })
	}
	env.Run()
	if got := env.Now().Seconds(); math.Abs(got-1.0) > 0.02 {
		t.Fatalf("elapsed = %v, want ~1.0 (ingress serialized)", got)
	}
}

func TestDisjointPairsRunInParallel(t *testing.T) {
	env := sim.New()
	n := New(env, 4, 100e6, 0)
	env.Go("a", func(p *sim.Proc) { n.Transfer(p, 0, 1, 50e6) })
	env.Go("b", func(p *sim.Proc) { n.Transfer(p, 2, 3, 50e6) })
	env.Run()
	if got := env.Now().Seconds(); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("elapsed = %v, want 0.5 (parallel)", got)
	}
}

func TestOpposingTransfersFullDuplexNoDeadlock(t *testing.T) {
	env := sim.New()
	n := New(env, 2, 100e6, 0)
	env.Go("a", func(p *sim.Proc) { n.Transfer(p, 0, 1, 50e6) })
	env.Go("b", func(p *sim.Proc) { n.Transfer(p, 1, 0, 50e6) })
	env.Run()
	// Full duplex: both directions proceed simultaneously.
	if got := env.Now().Seconds(); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("elapsed = %v, want 0.5 (full duplex)", got)
	}
}

func TestManyToManyShuffleNoDeadlock(t *testing.T) {
	env := sim.New()
	const nodes = 5
	n := New(env, nodes, 100e6, 0)
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			src, dst := i, j
			env.Go(fmt.Sprintf("t%d-%d", i, j), func(p *sim.Proc) {
				n.Transfer(p, src, dst, 10e6)
			})
		}
	}
	env.Run() // panics on deadlock
	if n.BytesTransferred() != float64(nodes*(nodes-1))*10e6 {
		t.Fatalf("bytes = %v", n.BytesTransferred())
	}
	if n.nics[0].ingress.BusyIntegral() <= 0 {
		t.Fatal("ingress busy integral should be positive")
	}
}

func TestInvalidConstruction(t *testing.T) {
	for _, fn := range []func(){
		func() { New(sim.New(), 0, 1, 0) },
		func() { New(sim.New(), 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
