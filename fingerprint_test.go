package onepass_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"onepass/internal/cli"
	"onepass/internal/engine"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fingerprint.txt from this run")

const fingerprintFile = "testdata/fingerprint.txt"

// fingerprints maps a fingerprint line's command word to the function that
// renders what the command writes as the line's fields. Each runs the
// command through the function its main calls, cli.Runjob, cli.Jobserve or
// cli.Check, with the line's arguments and the output flags it reads.
var fingerprints = map[string]func(t *testing.T, args []string) string{
	"runjob":   runjobFingerprint,
	"jobserve": jobserveFingerprint,
	"check":    checkFingerprint,
}

// TestFingerprint is the behaviour pin. Every number this reproduction
// reports is exact — sort CPU is counted comparator calls, every figure a
// deterministic virtual makespan — so each line of testdata/fingerprint.txt
// names one command line and pins what it must write: for runjob the
// makespan, comparison counts, output checksum and the SHA-256 of the Result
// JSON, the Chrome trace and the profile JSON; for a runjob -delta line the
// figures its report's exact line prints and the report's SHA-256; for
// jobserve the SHA-256 of its -json report; for check the SHA-256 of its
// Markdown report, whose runs digest covers every run of the sweep. A
// change that moves any cost, trace or answer fails here, naming the case
// and the fields; one meant to move them re-pins with
//
//	go test . -run TestFingerprint -update-golden
//
// A case runs with -parallel-intra 1. The cases pooledCase names run again
// with -parallel-intra 4 and must write the same bytes.
func TestFingerprint(t *testing.T) {
	raw, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	type fpCase struct {
		command string
		args    []string
		want    string
		got     string
	}
	var cases []*fpCase
	var out []any // comment lines as strings, cases as pointers, in file order
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			out = append(out, line)
			continue
		}
		cmdline, want, _ := strings.Cut(line, "|")
		fields := strings.Fields(cmdline)
		c := &fpCase{command: fields[0], args: fields[1:], want: strings.TrimSpace(want)}
		if fingerprints[c.command] == nil {
			t.Fatalf("%s: %q: unknown command %q", fingerprintFile, line, c.command)
		}
		cases = append(cases, c)
		out = append(out, c)
	}
	if len(cases) == 0 {
		t.Fatalf("%s holds no cases", fingerprintFile)
	}

	t.Run("case", func(t *testing.T) {
		for _, c := range cases {
			args := strings.Join(c.args, " ")
			t.Run(args, func(t *testing.T) {
				t.Parallel()
				fingerprint := fingerprints[c.command]
				c.got = fingerprint(t, withWidth(c.args, 1))
				if pooledCase(c.command, args) {
					if pooled := fingerprint(t, withWidth(c.args, 4)); pooled != c.got {
						t.Errorf("at -parallel-intra 4 the run moved %s:\n  serial: %s\n  pooled: %s",
							movedFields(c.got, pooled), c.got, pooled)
					}
				}
				if *updateGolden || c.got == c.want {
					return
				}
				t.Errorf("moved %s\n  replacement line:\n%s %s | %s\n  re-pin every case with: go test . -run TestFingerprint -update-golden",
					movedFields(c.want, c.got), c.command, args, c.got)
			})
		}
	})

	if !*updateGolden || t.Failed() {
		return
	}
	var b strings.Builder
	for _, o := range out {
		if c, ok := o.(*fpCase); ok {
			fmt.Fprintf(&b, "%s %s | %s\n", c.command, strings.Join(c.args, " "), c.got)
		} else {
			fmt.Fprintln(&b, o)
		}
	}
	if err := os.WriteFile(fingerprintFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// pooledCase reports whether a case also runs at -parallel-intra 4: every
// jobserve and check case, and of runjob's, each engine's default
// sessionization case, every -delta case (the merge job finishes preserved
// state on the pool) and the hash engines' -taskmem 256KB -block 128KB cases
// (their reducers spill, so keys finish at the leaves of the external hash).
func pooledCase(command, args string) bool {
	return command != "runjob" ||
		strings.HasSuffix(args, "-workload sessionization -size 8MB") ||
		strings.Contains(args, " -delta ") ||
		strings.HasPrefix(args, "-engine hash-") && strings.HasSuffix(args, "-size 8MB -taskmem 256KB -block 128KB")
}

// withWidth returns args with the intra-run pool width set to width.
func withWidth(args []string, width int) []string {
	return append(slices.Clip(args), "-parallel-intra", strconv.Itoa(width))
}

// runCommand runs cmd over args and returns what it wrote to stdout; a
// command that fails fails the test with what it wrote to stderr.
func runCommand(t *testing.T, cmd cli.Command, args []string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := cmd(args, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// runjobFingerprint pins a runjob run by what -json prints under "result"
// (its fields and the SHA-256 of its compact form, json.Marshal's bytes) and
// by the SHA-256 of the files -trace and -profile-json write. A -delta run
// takes none of those flags: it pins the fields of its report's exact line
// and the SHA-256 of the whole report.
func runjobFingerprint(t *testing.T, args []string) string {
	t.Helper()
	if slices.Contains(args, "-delta") {
		report := runCommand(t, cli.Runjob, args)
		for _, line := range strings.Split(string(report), "\n") {
			if exact, ok := strings.CutPrefix(strings.TrimSpace(line), "exact:"); ok {
				return fmt.Sprintf("%s report=%x", strings.TrimSpace(exact), sha256.Sum256(report))
			}
		}
		t.Fatalf("the -delta report has no exact line:\n%s", report)
		return ""
	}
	dir := t.TempDir()
	tracePath, profilePath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "profile.json")
	stdout := runCommand(t, cli.Runjob, append(slices.Clip(args), "-json", "-trace", tracePath, "-profile-json", profilePath))
	var doc struct {
		Result json.RawMessage `json:"result"`
	}
	var res struct {
		Makespan       int64              `json:"makespan"`
		OutputChecksum uint64             `json:"outputChecksum"`
		Counters       map[string]float64 `json:"counters"`
	}
	var result bytes.Buffer
	if err := json.Unmarshal(stdout, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc.Result, &res); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&result, doc.Result); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("makespan=%d sort=%.0f merge=%.0f checksum=%016x result=%x trace=%x profile=%x",
		res.Makespan, res.Counters[engine.CtrSortComparisons], res.Counters[engine.CtrMergeComparisons],
		res.OutputChecksum, sha256.Sum256(result.Bytes()), fileSum(t, tracePath), fileSum(t, profilePath))
}

// jobserveFingerprint pins a fleet by the SHA-256 of its -json report.
func jobserveFingerprint(t *testing.T, args []string) string {
	t.Helper()
	return fmt.Sprintf("report=%x", sha256.Sum256(runCommand(t, cli.Jobserve, append(slices.Clip(args), "-json"))))
}

// checkFingerprint pins a checker sweep by the SHA-256 of the Markdown
// report -out writes.
func checkFingerprint(t *testing.T, args []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "check.md")
	runCommand(t, cli.Check, append(slices.Clip(args), "-q", "-out", path))
	return fmt.Sprintf("report=%x", fileSum(t, path))
}

// fileSum returns the SHA-256 of the file at path.
func fileSum(t *testing.T, path string) [sha256.Size]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// movedFields names the fields of got whose values differ from want's.
func movedFields(want, got string) string {
	pinned := map[string]string{}
	for _, f := range strings.Fields(want) {
		k, v, _ := strings.Cut(f, "=")
		pinned[k] = v
	}
	var moved []string
	for _, f := range strings.Fields(got) {
		if k, v, _ := strings.Cut(f, "="); pinned[k] != v {
			moved = append(moved, k)
		}
	}
	if len(moved) == 0 {
		return "nothing"
	}
	return strings.Join(moved, ", ")
}
