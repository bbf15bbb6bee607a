package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"onepass/internal/loadgen"
)

// TestMain runs the command itself when the test binary is re-executed with
// JOBSERVE_MAIN set, so a test drives jobserve's real flag handling without
// a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("JOBSERVE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// jobserve -exectrace and -memprofile write a Go execution trace and an
// allocation profile of the fleet's run.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	tracePath, memPath := filepath.Join(dir, "exec.trace"), filepath.Join(dir, "mem.pprof")
	args := []string{"-tenant", "name=a,rate=50,jobs=2", "-size", "256KB", "-block", "64KB", "-nodes", "4", "-reducers", "4",
		"-exectrace", tracePath, "-memprofile", memPath}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "JOBSERVE_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("jobserve %v: %v\n%s", args, err, out)
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// The header is "go 1.NN trace" padded with NULs to 16 bytes.
	if len(b) <= 16 || !bytes.HasPrefix(b, []byte("go 1.")) || !bytes.Contains(b[:16], []byte(" trace\x00")) {
		t.Fatalf("%d-byte trace file starts %q, want a Go execution trace header", len(b), b[:min(len(b), 16)])
	}
	// pprof writes its profiles gzipped.
	if b, err = os.ReadFile(memPath); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
		t.Fatalf("%d-byte allocation profile starts %q, want a gzipped pprof profile", len(b), b[:min(len(b), 2)])
	}
}

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
