package cli

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes: -h, a command line that does not parse and a flag value
// the command rejects — a fault schedule among them — come back as the
// errors Main maps to 0, 2 and 1.
func TestExitCodes(t *testing.T) {
	commands := map[string]Command{"runjob": Runjob, "jobserve": Jobserve, "check": Check, "experiments": Experiments}
	for _, tc := range []struct {
		command string
		args    []string
		code    int
	}{
		{"runjob", []string{"-h"}, 0},
		{"jobserve", []string{"-h"}, 0},
		{"check", []string{"-h"}, 0},
		{"runjob", []string{"-nodes", "ten"}, 2},
		{"jobserve", []string{"-no-such-flag"}, 2},
		{"check", []string{"-seeds", "many"}, 2},
		{"runjob", []string{"-size", "huge"}, 1},
		{"runjob", []string{"-engine", "no-such-engine"}, 1},
		// Both compute nodes of a split cluster fail: no node is left to
		// recover on, so the schedule is rejected before anything runs.
		{"runjob", []string{"-split", "-nodes", "4", "-size", "8MB", "-fault", "fail@0.05s:n2,fail@0.05s:n3"}, 1},
		{"jobserve", []string{"-tenant", "weight=2"}, 1},
		{"experiments", []string{"-h"}, 0},
		{"experiments", []string{"-parallel", "two"}, 2},
		{"experiments", []string{"-exp", "No Such Experiment"}, 1},
	} {
		var stderr bytes.Buffer
		err := commands[tc.command](tc.args, io.Discard, &stderr)
		if got := ExitCode(err); got != tc.code {
			t.Errorf("%s %s: error %v exits %d, want %d", tc.command, strings.Join(tc.args, " "), err, got, tc.code)
		}
		if tc.code != 1 && stderr.Len() == 0 {
			t.Errorf("%s %s: printed no usage", tc.command, strings.Join(tc.args, " "))
		}
	}
}

// TestDeltaRejectsFlagsItIgnores: a -delta run prints its comparison report
// and nothing else, so every flag it could not honour is an error, returned
// before anything runs.
func TestDeltaRejectsFlagsItIgnores(t *testing.T) {
	for _, extra := range [][]string{
		{"-json"},
		{"-trace", "t.json"},
		{"-gantt"},
		{"-profile"},
		{"-profile-json", "p.json"},
		{"-progress"},
		{"-stream", "2"},
		{"-fault", "fail@0.05s:n3"},
		{"-fault-seed", "3"},
	} {
		args := append([]string{"-workload", "per-user-count", "-size", "1MB", "-delta", "0.05"}, extra...)
		var stdout bytes.Buffer
		err := Runjob(args, &stdout, io.Discard)
		if err == nil || ExitCode(err) != 1 || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("runjob %s: error %v, want one naming %s", strings.Join(args, " "), err, extra[0])
		}
		if stdout.Len() > 0 {
			t.Errorf("runjob %s ran and printed %q", strings.Join(args, " "), stdout.String())
		}
	}
}

// TestExperimentsWritesProfiles: experiments -cpuprofile and -memprofile
// write pprof profiles of the sweep, gzipped as pprof writes them, and
// -exectrace a Go execution trace.
func TestExperimentsWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpuPath, memPath, tracePath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "exec.trace")
	args := []string{"-scale", "0.00003125", "-exp", "Fig 3", "-q",
		"-cpuprofile", cpuPath, "-memprofile", memPath, "-exectrace", tracePath}
	var stdout, stderr bytes.Buffer
	if err := Experiments(args, &stdout, &stderr); err != nil {
		t.Fatalf("experiments %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	if !strings.HasPrefix(stdout.String(), "# EXPERIMENTS") || !strings.Contains(stdout.String(), "Fig 3") {
		t.Errorf("experiments printed %d bytes, not the Fig 3 report", stdout.Len())
	}
	for _, path := range []string{cpuPath, memPath} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes starting %q, want a gzipped pprof profile", filepath.Base(path), len(b), b[:min(len(b), 2)])
		}
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// The header is "go 1.NN trace" padded with NULs to 16 bytes.
	if len(b) <= 16 || !bytes.HasPrefix(b, []byte("go 1.")) || !bytes.Contains(b[:16], []byte(" trace\x00")) {
		t.Errorf("%d-byte trace file starts %q, want a Go execution trace header", len(b), b[:min(len(b), 16)])
	}
}

// TestCheckWritesProfiles: check -cpuprofile and -memprofile write pprof
// profiles of the sweep, gzipped as pprof writes them.
func TestCheckWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpuPath, memPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	args := []string{"-seeds", "1", "-q", "-cpuprofile", cpuPath, "-memprofile", memPath}
	var stderr bytes.Buffer
	if err := Check(args, io.Discard, &stderr); err != nil {
		t.Fatalf("check %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	for _, path := range []string{cpuPath, memPath} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes starting %q, want a gzipped pprof profile", filepath.Base(path), len(b), b[:min(len(b), 2)])
		}
	}
}
