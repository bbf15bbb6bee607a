package onepass

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/textfmt"
	"onepass/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fingerprint.txt from this run")

const fingerprintFile = "testdata/fingerprint.txt"

// TestFingerprint is the behaviour pin. Every number this reproduction
// reports is exact — sort CPU is counted comparator calls, every figure a
// deterministic virtual makespan — so each line of testdata/fingerprint.txt
// names one run by the runjob flags that reproduce it and pins what it must
// produce: makespan, comparison counts, output checksum, and the SHA-256 of
// the Result JSON, the Chrome trace and the profile JSON, byte for byte as
// `runjob -json`, `-trace` and `-profile-json` write them. A change that
// moves any cost, trace or answer fails here, naming the case and the
// artifact; one meant to move them re-pins with
//
//	go test . -run TestFingerprint -update-golden
//
// The default sessionization cases also run with a 4-wide intra-run pool,
// which must reproduce the serial fingerprint exactly.
func TestFingerprint(t *testing.T) {
	raw, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	type fpCase struct{ flags, want, got string }
	var cases []*fpCase
	var out []any // comment lines as strings, cases as pointers, in file order
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			out = append(out, line)
			continue
		}
		flags, want, _ := strings.Cut(line, "|")
		c := &fpCase{flags: strings.TrimSpace(flags), want: strings.TrimSpace(want)}
		cases = append(cases, c)
		out = append(out, c)
	}
	if len(cases) == 0 {
		t.Fatalf("%s holds no cases", fingerprintFile)
	}

	t.Run("case", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.flags, func(t *testing.T) {
				t.Parallel()
				run, err := parseFingerprintFlags(c.flags)
				if err != nil {
					t.Fatal(err)
				}
				c.got = run.fingerprint(t, 1)
				if run.pooled() {
					if pooled := run.fingerprint(t, 4); pooled != c.got {
						t.Errorf("at Parallelism 4 the run moved %s:\n  serial: %s\n  pooled: %s",
							movedFields(c.got, pooled), c.got, pooled)
					}
				}
				if *updateGolden || c.got == c.want {
					return
				}
				moved := movedFields(c.want, c.got)
				hint := ""
				// The map-side sort's comparator calls depend only on the data
				// and the sort algorithm; a merge's also on arrival order.
				if strings.Contains(moved, "sort") && !strings.Contains(moved, "checksum") {
					hint = "\n  the sort comparison counts moved and the answer did not: a Go toolchain bump (pdqsort) moves them, and every cost after them"
				}
				t.Errorf("moved %s%s\n  replacement line:\n%s | %s\n  re-pin every case with: go test . -run TestFingerprint -update-golden",
					moved, hint, c.flags, c.got)
			})
		}
	})

	if !*updateGolden || t.Failed() {
		return
	}
	var b strings.Builder
	for _, o := range out {
		if c, ok := o.(*fpCase); ok {
			fmt.Fprintf(&b, "%s | %s\n", c.flags, c.got)
		} else {
			fmt.Fprintln(&b, o)
		}
	}
	if err := os.WriteFile(fingerprintFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fingerprintRun is one case's configuration, parsed from runjob's flags
// with runjob's defaults.
type fingerprintRun struct {
	engine, workload, size, block, taskmem, fault string
	delta                                         float64
}

func parseFingerprintFlags(args string) (*fingerprintRun, error) {
	var r fingerprintRun
	fs := flag.NewFlagSet("runjob", flag.ContinueOnError)
	fs.StringVar(&r.engine, "engine", "hadoop", "")
	fs.StringVar(&r.workload, "workload", "sessionization", "")
	fs.StringVar(&r.size, "size", "32MB", "")
	fs.StringVar(&r.block, "block", "1MB", "")
	fs.StringVar(&r.taskmem, "taskmem", "", "")
	fs.StringVar(&r.fault, "fault", "", "")
	fs.Float64Var(&r.delta, "delta", 0, "")
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("stray arguments %q", fs.Args())
	}
	return &r, nil
}

// pooled reports whether the case also runs with a 4-wide pool: the
// default sessionization run of each engine.
func (r *fingerprintRun) pooled() bool {
	return r.workload == "sessionization" && r.block == "1MB" && r.taskmem == "" && r.fault == "" && r.delta == 0
}

// fingerprint runs the case the way runjob does — DefaultConfig, 20
// reducers, discarded output — at the given pool width and renders what it
// produced as the key=value fields of a fingerprint line. A -delta case pins
// the incremental run, the base run's makespan and the DeltaStats; it writes
// no trace or profile, as runjob's -delta writes none.
func (r *fingerprintRun) fingerprint(t *testing.T, parallelism int) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Reducers = 20
	cfg.DiscardOutput = true
	cfg.Parallelism = parallelism
	var err error
	if cfg.Engine, err = ParseEngine(r.engine); err != nil {
		t.Fatal(err)
	}
	if cfg.BlockSize, err = textfmt.ParseSize(r.block); err != nil {
		t.Fatal(err)
	}
	if r.taskmem != "" {
		if cfg.MemoryPerTask, err = textfmt.ParseSize(r.taskmem); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Faults, err = ParseFaults(r.fault); err != nil {
		t.Fatal(err)
	}
	size, err := textfmt.ParseSize(r.size)
	if err != nil {
		t.Fatal(err)
	}
	cc := DefaultClickConfig()
	w, err := workloads.ByName(r.workload, cc, DefaultDocConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := Dataset{Path: "input/" + w.Name, Size: size, Gen: w.Gen}

	if r.delta != 0 {
		cfg.DiscardOutput = false
		dr, err := RunDelta(cfg, data, w.Job, DefaultDelta(cc, 42, r.delta))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := json.Marshal(dr.Stats)
		if err != nil {
			t.Fatal(err)
		}
		return resultFields(t, dr.Incremental) +
			fmt.Sprintf(" base=%d stats=%x", int64(dr.Base.Makespan), sha256.Sum256(stats))
	}

	tl := NewTraceLog()
	cfg.Trace = tl
	res, err := Run(cfg, data, w.Job)
	if err != nil {
		t.Fatal(err)
	}
	AttachCounterTracks(tl, res)
	prof, err := ComputeProfile(tl, res)
	if err != nil {
		t.Fatal(err)
	}
	trace := sha256.New()
	if err := tl.WriteChrome(trace); err != nil {
		t.Fatal(err)
	}
	profJSON, err := prof.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	return resultFields(t, res) +
		fmt.Sprintf(" trace=%x profile=%x", trace.Sum(nil), sha256.Sum256(profJSON))
}

// resultFields renders the fields every case pins from its Result.
func resultFields(t *testing.T, res *Result) string {
	t.Helper()
	rj, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("makespan=%d sort=%.0f merge=%.0f checksum=%016x result=%x",
		int64(res.Makespan), res.Counters.Get(engine.CtrSortComparisons),
		res.Counters.Get(engine.CtrMergeComparisons), res.OutputChecksum, sha256.Sum256(rj))
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
