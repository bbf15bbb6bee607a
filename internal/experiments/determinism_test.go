package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"onepass/internal/parallel"
)

// renderAll concatenates every report, mirroring what cmd/experiments
// writes between header and footer.
// renderSerially renders every experiment in paper order, one at a time: the
// reference execution RunAll's output must equal byte for byte.
func renderSerially(s *Session) []*Report {
	reps := make([]*Report, 0, len(Experiments()))
	for _, e := range Experiments() {
		reps = append(reps, e.Render(s))
	}
	return reps
}

func renderAll(reps []*Report) []byte {
	var b bytes.Buffer
	for _, rep := range reps {
		b.WriteString(rep.Render())
		b.WriteString("\n")
	}
	return b.Bytes()
}

// TestParallelSweepByteIdenticalToSerial is the determinism regression
// gate: the full registry rendered on 4 workers must be byte-identical to
// the serial reference path and execute exactly the runs it executes — the
// session cache, not a second list of specs, is what keeps a run two
// experiments share from executing twice. One width suffices: a driver that
// stores reports in completion order, or lets two renderers execute the
// same spec, fails at 4 workers.
func TestParallelSweepByteIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps in -short mode")
	}
	scale := testScale()

	serial := NewSession(scale)
	serialReps := renderSerially(serial)
	serialOut := renderAll(serialReps)
	serialRuns, _ := serial.RunStats()
	for i, e := range Experiments() {
		if serialReps[i].ID != e.ID {
			t.Errorf("experiment %q renders as %q: -exp filters on one, EXPERIMENTS.md shows the other", e.ID, serialReps[i].ID)
		}
	}

	par := NewSession(scale)
	reps, err := par.RunAll(context.Background(), 4, Experiments())
	if err != nil {
		t.Fatal(err)
	}
	if parOut := renderAll(reps); !bytes.Equal(serialOut, parOut) {
		d := diffLine(serialOut, parOut)
		t.Fatalf("4-worker sweep output differs from serial at line %d:\nserial: %s\nparallel: %s",
			d.line, d.a, d.b)
	}
	if parRuns, _ := par.RunStats(); parRuns != serialRuns {
		t.Errorf("4-worker session executed %d runs, serial %d — duplicate or missing executions", parRuns, serialRuns)
	}
}

type lineDiff struct {
	line int
	a, b string
}

func diffLine(a, b []byte) lineDiff {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return lineDiff{line: i + 1, a: al[i], b: bl[i]}
		}
	}
	return lineDiff{line: len(al), a: "<end>", b: "<end>"}
}

// runAllWithin fails the test if RunAll has not returned after a few
// seconds: a driver that hangs must fail, not time the whole suite out.
func runAllWithin(t *testing.T, s *Session, ctx context.Context, workers int, exps []Experiment) ([]*Report, error) {
	t.Helper()
	type result struct {
		reps []*Report
		err  error
	}
	done := make(chan result, 1)
	go func() {
		reps, err := s.RunAll(ctx, workers, exps)
		done <- result{reps, err}
	}()
	select {
	case r := <-done:
		return r.reps, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("RunAll did not return")
		return nil, nil
	}
}

// TestRunAllRendersConcurrently: two renderers that each wait for the other
// to have started can only finish if both render at once.
func TestRunAllRendersConcurrently(t *testing.T) {
	aStarted, bStarted := make(chan struct{}), make(chan struct{})
	exps := []Experiment{
		{ID: "a", Render: func(*Session) *Report { close(aStarted); <-bStarted; return &Report{ID: "a"} }},
		{ID: "b", Render: func(*Session) *Report { close(bStarted); <-aStarted; return &Report{ID: "b"} }},
	}
	reps, err := runAllWithin(t, NewSession(testScale()), context.Background(), 2, exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].ID != "a" || reps[1].ID != "b" {
		t.Fatalf("reports out of order: %+v", reps)
	}
}

func TestRunAllReturnsRendererPanicAsError(t *testing.T) {
	exps := []Experiment{
		{ID: "fine", Render: func(*Session) *Report { return &Report{ID: "fine"} }},
		{ID: "Fig 9(z)", Render: func(*Session) *Report { panic("boom") }},
	}
	_, err := runAllWithin(t, NewSession(testScale()), context.Background(), 1, exps)
	var pe *parallel.PanicError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "Fig 9(z)") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("RunAll error = %v, want the captured panic naming Fig 9(z)", err)
	}
}

// TestRunAllFailedRunWakesWaiters: two experiments need the same spec and
// its one execution panics while the other experiment is waiting on it.
// Both must come back (neither hangs), and whichever error RunAll reports
// first must carry the cause.
func TestRunAllFailedRunWakesWaiters(t *testing.T) {
	s := NewSession(testScale())
	spec := runSpec{Workload: "per-user-count", Engine: "hash-incremental", InputGB: 1}
	var arrived sync.WaitGroup
	arrived.Add(2)
	render := func(s *Session) *Report {
		arrived.Done()
		s.Run(spec)
		return &Report{}
	}
	// execute logs once before it launches the engine — on the goroutine
	// that owns the run. Hold it there until both experiments have asked
	// for the spec, give the other time to park on the entry, then fail.
	s.Log = func(string, ...interface{}) {
		arrived.Wait()
		time.Sleep(20 * time.Millisecond)
		panic("disk on fire")
	}
	_, err := runAllWithin(t, s, context.Background(), 2,
		[]Experiment{{ID: "first", Render: render}, {ID: "second", Render: render}})
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("RunAll error = %v, want one carrying the run's panic", err)
	}
	if !strings.Contains(err.Error(), "first") && !strings.Contains(err.Error(), "second") {
		t.Fatalf("RunAll error %q names no experiment", err)
	}
	if runs, _ := s.RunStats(); runs != 0 {
		t.Fatalf("failed run counted as %d executed runs", runs)
	}
}

func TestRunAllStopsStartingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := 0
	render := func(*Session) *Report { started++; cancel(); return &Report{} }
	exps := []Experiment{{ID: "a", Render: render}, {ID: "b", Render: render}, {ID: "c", Render: render}}
	_, err := runAllWithin(t, NewSession(testScale()), ctx, 1, exps)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll error = %v, want context.Canceled", err)
	}
	if started != 1 {
		t.Fatalf("%d experiments started, want only the one that cancelled", started)
	}
}

// TestDocumentedExpFiltersMatchRegistry: every -exp '…' the docs quote must
// select something — cmd/experiments exits with "no experiment ID contains"
// otherwise.
func TestDocumentedExpFiltersMatchRegistry(t *testing.T) {
	quoted := regexp.MustCompile(`-exp '([^']*)'`)
	for _, doc := range []string{"../../DESIGN.md", "../../README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		ms := quoted.FindAllSubmatch(text, -1)
		if len(ms) == 0 {
			t.Errorf("%s quotes no -exp filter; has the spelling changed?", doc)
		}
	next:
		for _, m := range ms {
			for _, e := range Experiments() {
				if strings.Contains(e.ID, string(m[1])) {
					continue next
				}
			}
			t.Errorf("%s: -exp '%s' matches no experiment ID", doc, m[1])
		}
	}
}
