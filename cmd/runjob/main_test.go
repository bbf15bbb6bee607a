package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"onepass/internal/cli"
)

// runjob -exectrace writes a Go execution trace of the job run, on the plain
// path and, with -delta, of RunDelta alone.
func TestExecTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"run", []string{"-workload", "per-user-count", "-engine", "hash-incremental", "-size", "1MB", "-block", "256KB"}},
		{"delta", []string{"-workload", "per-user-count", "-engine", "resident", "-size", "1MB", "-block", "256KB", "-delta", "0.05"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "exec.trace")
			var stderr bytes.Buffer
			if err := cli.Runjob(append(tc.args, "-exectrace", path), io.Discard, &stderr); err != nil {
				t.Fatalf("runjob %v: %v\n%s", tc.args, err, stderr.Bytes())
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The header is "go 1.NN trace" padded with NULs to 16 bytes.
			if len(b) <= 16 || !bytes.HasPrefix(b, []byte("go 1.")) || !bytes.Contains(b[:16], []byte(" trace\x00")) {
				t.Fatalf("%d-byte trace file starts %q, want a Go execution trace header", len(b), b[:min(len(b), 16)])
			}
		})
	}
}
