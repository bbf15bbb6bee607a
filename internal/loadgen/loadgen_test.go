package loadgen

import (
	"math"
	"testing"

	"onepass/internal/sim"
)

func TestConstantGap(t *testing.T) {
	a := Constant(4)
	for i := 0; i < 3; i++ {
		if got := a.Next(); got != sim.Duration(250*1e6) {
			t.Fatalf("gap %d = %v, want 0.25s", i, got)
		}
	}
}

func TestPoissonDeterministicAndRate(t *testing.T) {
	const n = 20000
	a, b := Poisson(42, 5), Poisson(42, 5)
	var sum sim.Duration
	for i := 0; i < n; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("draw %d: same seed diverged (%v vs %v)", i, ga, gb)
		}
		if ga < 0 {
			t.Fatalf("draw %d: negative gap %v", i, ga)
		}
		sum += ga
	}
	mean := sum.Seconds() / n
	if math.Abs(mean-0.2) > 0.01 {
		t.Fatalf("mean gap %.4fs, want ~0.2s at 5 jobs/s", mean)
	}
	if c := Poisson(43, 5).Next(); c == Poisson(42, 5).Next() {
		t.Fatal("different seeds produced the same first gap")
	}
}

func TestArrivalRejectsBadRates(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), 1e-10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Constant(%g) did not panic", rate)
				}
			}()
			Constant(rate)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Poisson(1, %g) did not panic", rate)
				}
			}()
			Poisson(1, rate)
		}()
	}
}

func TestPoissonSaturatesHugeGaps(t *testing.T) {
	// The smallest rate whose mean gap fits: a draw a few means out is past
	// sim.Duration's range and must saturate, not wrap negative.
	rate := float64(sim.Second) / (1 << 62)
	a := Poisson(1, rate)
	saturated := false
	for i := 0; i < 64; i++ {
		g := a.Next()
		if g < 0 {
			t.Fatalf("draw %d: negative gap %v", i, g)
		}
		saturated = saturated || g == math.MaxInt64
	}
	if !saturated {
		t.Fatal("no draw reached the saturation bound")
	}
}
