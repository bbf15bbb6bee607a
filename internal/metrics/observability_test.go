package metrics

import (
	"strings"
	"testing"

	"onepass/internal/sim"
)

func TestTimelineOpenSpanDetection(t *testing.T) {
	tl := NewTimeline()
	a := tl.Begin(Span{Name: "map"})
	b := tl.Begin(Span{Name: "reduce", Start: sim.Time(sim.Second)})
	a.End(sim.Time(2 * sim.Second))

	err := tl.CheckClosed()
	if err == nil {
		t.Fatal("CheckClosed ignored an open span")
	}
	if !strings.Contains(err.Error(), "1 open span(s): reduce@") {
		t.Fatalf("CheckClosed error %q does not name just the open span", err)
	}

	if n := tl.CloseOpenAt(sim.Time(5 * sim.Second)); n != 1 {
		t.Fatalf("CloseOpenAt closed %d spans, want 1", n)
	}
	if b.Finish != sim.Time(5*sim.Second) {
		t.Fatalf("span not clamped to horizon: finish=%v", b.Finish)
	}
	if err := tl.CheckClosed(); err != nil {
		t.Fatalf("CheckClosed after CloseOpenAt: %v", err)
	}
	// Closed span durations must be untouched by the force-close.
	if a.Finish != sim.Time(2*sim.Second) {
		t.Fatalf("closed span finish moved to %v", a.Finish)
	}
	if n := tl.CloseOpenAt(sim.Time(9 * sim.Second)); n != 0 {
		t.Fatalf("second CloseOpenAt closed %d spans, want 0", n)
	}
}

func TestTimelineCheckClosedEmpty(t *testing.T) {
	if err := NewTimeline().CheckClosed(); err != nil {
		t.Fatalf("empty timeline: %v", err)
	}
}

// TestTimelineChartsReducePhasesNotReduceTasks pins the Fig. 2(a) rule: the
// views draw map tasks and reduce phases, while a reduce task's own span —
// "reduce" is also the name of its final phase — appears only in Spans().
func TestTimelineChartsReducePhasesNotReduceTasks(t *testing.T) {
	tl := NewTimeline()
	task := tl.Begin(Span{Name: "reduce"})
	tl.Begin(Span{Name: "map"}).End(sim.Time(2 * sim.Second))
	tl.Begin(Span{Name: "shuffle", Phase: true, Start: sim.Time(sim.Second)}).End(sim.Time(3 * sim.Second))
	tl.Begin(Span{Name: "reduce", Phase: true, Start: sim.Time(3 * sim.Second)}).End(sim.Time(4 * sim.Second))
	task.End(sim.Time(4 * sim.Second))

	if n := len(tl.Spans()); n != 4 {
		t.Fatalf("Spans() = %d spans, want 4", n)
	}
	if got := strings.Join(tl.Phases(), ","); got != "map,shuffle,reduce" {
		t.Fatalf("Phases() = %s, want map,shuffle,reduce", got)
	}
	if n := tl.CountByPhase()["reduce"]; n != 1 {
		t.Fatalf("CountByPhase()[reduce] = %d, want 1 (the phase only)", n)
	}
	if start, end, ok := tl.PhaseWindow("reduce"); !ok || start != sim.Time(3*sim.Second) || end != sim.Time(4*sim.Second) {
		t.Fatalf("PhaseWindow(reduce) = %v..%v ok=%v, want the phase's 3s..4s", start, end, ok)
	}
	if peak := tl.Counts(sim.Second, sim.Time(4*sim.Second))["reduce"].Max(); peak != 1 {
		t.Fatalf("Counts()[reduce] peaks at %v, want 1", peak)
	}
}

// The sampler's contract is one final sample on its first tick after Stop, so
// work done in the last partial interval is still captured.
func TestSamplerFinalPartialInterval(t *testing.T) {
	env := sim.New()
	s := NewSampler(env, sim.Second)
	cum := 0.0
	deltas := s.TrackDelta("d", "v", func() float64 { return cum }, 1)
	s.Start()
	env.Go("driver", func(p *sim.Proc) {
		cum = 4
		// Land strictly inside the third interval: updates at exactly a tick
		// boundary would race the sampler's same-instant sample.
		p.Sleep(2*sim.Second + sim.Second/4)
		cum = 7 // last partial interval's activity
		p.Sleep(sim.Second / 4)
		s.Stop() // at 2.5s; sampler's final tick is at 3s
	})
	env.Run()

	if deltas.Len() != 3 {
		t.Fatalf("delta series has %d buckets, want 3: %v", deltas.Len(), deltas.vals)
	}
	if deltas.At(2) != 3 {
		t.Fatalf("final partial interval delta = %v, want 3", deltas.At(2))
	}
	// No samples may be lost: the per-bucket deltas must sum to the probe's
	// final cumulative value.
	total := 0.0
	for _, v := range deltas.vals {
		total += v
	}
	if total != cum {
		t.Fatalf("delta series sums to %v, probe ended at %v", total, cum)
	}
}
