package main

import (
	"testing"

	"onepass/internal/loadgen"
)

func TestParseTenantRejectsUnusableRates(t *testing.T) {
	for _, rate := range []string{"0", "-1", "NaN", "Inf", "-Inf", "1e-10"} {
		if _, err := parseTenant("name=a,rate=" + rate); err == nil {
			t.Errorf("rate=%s accepted", rate)
		}
	}
	if _, err := parseTenant("name=a,rate=1e-9"); err != nil {
		t.Errorf("rate=1e-9 rejected: %v", err)
	}
}

// FuzzParseTenant: a spec parseTenant accepts builds both arrival
// processes without panicking, and every gap they draw is non-negative.
func FuzzParseTenant(f *testing.F) {
	for _, seed := range []string{
		"name=gold,weight=2,rate=12,jobs=14",
		"name=batch,rate=6,jobs=8,mix=sessionization@hadoop",
		"name=etl,prio=1,rate=20,jobs=30,mix=sessionization@hadoop+per-user-count@hop",
		"name=a,rate=1e-9",
		"name=a,rate=1e300",
		"name=a,rate=NaN",
		"name=a,maxrun=2,maxqueue=3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ts, err := parseTenant(spec)
		if err != nil {
			return
		}
		if ts.cfg.Name == "" {
			t.Fatal("accepted a tenant with no name")
		}
		for _, arr := range []loadgen.Arrival{loadgen.Poisson(1, ts.rate), loadgen.Constant(ts.rate)} {
			for i := 0; i < 16; i++ {
				if g := arr.Next(); g < 0 {
					t.Fatalf("rate %g: gap %d = %v", ts.rate, i, g)
				}
			}
		}
	})
}
