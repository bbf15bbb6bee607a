package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"onepass/internal/sim"
)

func TestSeriesAddSet(t *testing.T) {
	s := NewSeries("x", "v", sim.Second)
	s.Add(sim.Time(500*sim.Millisecond), 2)
	s.Add(sim.Time(900*sim.Millisecond), 3)
	s.Add(sim.Time(2500*sim.Millisecond), 7)
	if got := s.At(0); got != 5 {
		t.Fatalf("bucket 0 = %v, want 5", got)
	}
	if got := s.At(1); got != 0 {
		t.Fatalf("bucket 1 = %v, want 0", got)
	}
	if got := s.At(2); got != 7 {
		t.Fatalf("bucket 2 = %v, want 7", got)
	}
	s.Set(sim.Time(0), 10)
	if got := s.At(0); got != 10 {
		t.Fatalf("after Set bucket 0 = %v, want 10", got)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
}

func TestSeriesStats(t *testing.T) {
	s := NewSeries("x", "v", sim.Second)
	for i, v := range []float64{1, 5, 3} {
		s.Set(sim.Time(int64(i)*int64(sim.Second)), v)
	}
	if s.Max() != 5 {
		t.Fatalf("max = %v", s.Max())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if got := s.MeanOver(1, 3); got != 4 {
		t.Fatalf("meanover = %v", got)
	}
	if got := s.MeanOver(-5, 100); got != 3 {
		t.Fatalf("clamped meanover = %v", got)
	}
	if got := s.At(99); got != 0 {
		t.Fatalf("out of range At = %v", got)
	}
}

func TestSeriesSparkAndDownsample(t *testing.T) {
	s := NewSeries("x", "v", sim.Second)
	for i := 0; i < 8; i++ {
		s.Set(sim.Time(int64(i)*int64(sim.Second)), float64(i))
	}
	spark := s.Spark()
	if len([]rune(spark)) != 8 {
		t.Fatalf("spark width = %d, want 8: %q", len([]rune(spark)), spark)
	}
	d := s.Downsample(2)
	if d.Len() != 4 {
		t.Fatalf("downsampled len = %d, want 4", d.Len())
	}
	if d.At(0) != 0.5 || d.At(3) != 6.5 {
		t.Fatalf("downsample values wrong: %v", d.vals)
	}
	if (&Series{}).Spark() == "" {
		t.Fatal("empty spark should render placeholder")
	}
}

func TestSeriesDownsampleFactorOneIsIdentity(t *testing.T) {
	s := NewSeries("x", "v", sim.Second)
	s.Add(0, 1)
	if s.Downsample(1) != s {
		t.Fatal("factor 1 should return the receiver")
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("bytes", 5)
	c.Add("bytes", 7)
	c.Add("alpha", 1)
	if c.Get("bytes") != 12 {
		t.Fatalf("bytes = %v", c.Get("bytes"))
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter should be 0")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "bytes" {
		t.Fatalf("names = %v", names)
	}
}

func TestCPUAccount(t *testing.T) {
	a := NewCPUAccount()
	a.Add("map-fn", 6*sim.Second)
	a.Add("sort", 4*sim.Second)
	if a.Total() != 10 {
		t.Fatalf("total = %v", a.Total())
	}
	if got := a.Share("sort"); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("sort share = %v, want 0.4", got)
	}
	b := NewCPUAccount()
	b.Add("sort", 1*sim.Second)
	a.Merge(b)
	if a.Seconds("sort") != 5 {
		t.Fatalf("merged sort = %v", a.Seconds("sort"))
	}
	if got := NewCPUAccount().Share("x"); got != 0 {
		t.Fatalf("empty share = %v", got)
	}
	ph := a.Phases()
	if len(ph) != 2 || ph[0] != "map-fn" {
		t.Fatalf("phases = %v", ph)
	}
}

// probe is a Source of one quantity, read by calling it.
type probe func() float64

func (f probe) Cumulative(int) float64 { return f() }

// TrackDelta tracks f's quantity into a new series.
func (s *Sampler) TrackDelta(name, unit string, f func() float64, scale float64) *Series {
	series := new(Series)
	s.Track(series, name, unit, probe(f), 0, scale)
	return series
}

func TestSamplerDelta(t *testing.T) {
	env := sim.New()
	s := NewSampler(env, sim.Second)
	cum := 0.0
	deltas := s.TrackDelta("d", "v", func() float64 { return cum }, 1)
	s.Start()
	env.Go("driver", func(p *sim.Proc) {
		cum = 2
		p.Sleep(sim.Second) // sampler ticks at 1s after this
		cum = 5
		p.Sleep(sim.Second)
		s.Stop()
	})
	env.Run()
	if deltas.At(0) != 2 || deltas.At(1) != 3 {
		t.Fatalf("deltas = %v", deltas.vals)
	}
}

func TestSamplerTrackDeltaAfterStart(t *testing.T) {
	env := sim.New()
	s := NewSampler(env, sim.Second)
	cum := 0.0
	var late *Series
	s.Start()
	env.Go("driver", func(p *sim.Proc) {
		cum = 100 // history accumulated before the probe is registered
		late = s.TrackDelta("late", "v", func() float64 { return cum }, 1)
		p.Sleep(sim.Second)
		cum = 103
		p.Sleep(sim.Second)
		s.Stop()
	})
	env.Run()
	// The first bucket must hold only the delta since registration, not the
	// probe's whole cumulative history.
	if late.At(0) != 0 || late.At(1) != 3 {
		t.Fatalf("late deltas = %v, want [0 3]", late.vals)
	}
}

func TestSamplerUtilizationFromResource(t *testing.T) {
	env := sim.New()
	cpu := env.NewResource("cpu", 4)
	s := NewSampler(env, sim.Second)
	util := s.TrackDelta("cpu", "util", func() float64 { return cpu.BusyIntegral() }, 1.0/4.0)
	s.Start()
	env.Go("worker", func(p *sim.Proc) {
		cpu.Use(p, 2, 3*sim.Second) // 50% busy for 3s
		s.Stop()
	})
	env.Run()
	for i := 0; i < 3; i++ {
		if got := util.At(i); math.Abs(got-0.5) > 1e-9 {
			t.Fatalf("util[%d] = %v, want 0.5", i, got)
		}
	}
}

func TestSamplerStartTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env := sim.New()
	s := NewSampler(env, sim.Second)
	s.Start()
	s.Start()
}

func TestTimelineCounts(t *testing.T) {
	tl := NewTimeline()
	m1 := tl.Begin(Span{Name: "map"})
	m2 := tl.Begin(Span{Name: "map", Start: sim.Time(1 * sim.Second)})
	r := tl.Begin(Span{Name: "reduce", Phase: true, Start: sim.Time(2 * sim.Second)})
	m1.End(sim.Time(2 * sim.Second))
	m2.End(sim.Time(3 * sim.Second))
	r.End(sim.Time(4 * sim.Second))
	counts := tl.Counts(sim.Second, sim.Time(4*sim.Second))
	maps := counts["map"]
	if maps.At(0) != 1 || maps.At(1) != 2 || maps.At(2) != 1 || maps.At(3) != 0 {
		t.Fatalf("map counts = %v", maps.vals)
	}
	reduces := counts["reduce"]
	if reduces.At(1) != 0 || reduces.At(2) != 1 || reduces.At(3) != 1 {
		t.Fatalf("reduce counts = %v", reduces.vals)
	}
}

func TestTimelinePhaseWindowAndCounts(t *testing.T) {
	tl := NewTimeline()
	a := tl.Begin(Span{Name: "merge", Phase: true, Start: sim.Time(5 * sim.Second)})
	a.End(sim.Time(9 * sim.Second))
	b := tl.Begin(Span{Name: "merge", Phase: true, Start: sim.Time(2 * sim.Second)})
	b.End(sim.Time(6 * sim.Second))
	start, end, ok := tl.PhaseWindow("merge")
	if !ok || start != sim.Time(2*sim.Second) || end != sim.Time(9*sim.Second) {
		t.Fatalf("window = %v..%v ok=%v", start, end, ok)
	}
	if _, _, ok := tl.PhaseWindow("nope"); ok {
		t.Fatal("missing phase should report !ok")
	}
	if n := tl.CountByPhase()["merge"]; n != 2 {
		t.Fatalf("count = %d", n)
	}
}

func TestTimelineRender(t *testing.T) {
	tl := NewTimeline()
	s := tl.Begin(Span{Name: "map"})
	s.End(sim.Time(10 * sim.Second))
	out := tl.Render(sim.Second, sim.Time(10*sim.Second), 5)
	if !strings.Contains(out, "map") || !strings.Contains(out, "peak=1") {
		t.Fatalf("render = %q", out)
	}
}

func TestSpanDoubleEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tl := NewTimeline()
	s := tl.Begin(Span{Name: "x"})
	s.End(1)
	s.End(2)
}

func TestFormatBytes(t *testing.T) {
	cases := map[float64]string{
		512:     "512 B",
		2048:    "2.00 KB",
		3 << 20: "3.00 MB",
		5 << 30: "5.00 GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%v) = %q, want %q", in, got, want)
		}
	}
}

// Property: for any set of spans, total bucket-count mass across phases
// equals the sum over spans of the number of buckets each overlaps.
func TestTimelineCountMassProperty(t *testing.T) {
	f := func(startsMs, lensMs []uint16) bool {
		n := len(startsMs)
		if len(lensMs) < n {
			n = len(lensMs)
		}
		if n > 30 {
			n = 30
		}
		tl := NewTimeline()
		end := sim.Time(0)
		expected := 0
		bucket := sim.Second
		for i := 0; i < n; i++ {
			start := sim.Time(int64(startsMs[i]%10000) * int64(sim.Millisecond))
			fin := start.Add(sim.Duration(int64(lensMs[i]%10000)) * sim.Millisecond)
			sp := tl.Begin(Span{Name: "p", Start: start})
			sp.End(fin)
			if fin > end {
				end = fin
			}
			first := int(int64(start) / int64(bucket))
			last := int(int64(fin) / int64(bucket))
			if fin > start && int64(fin)%int64(bucket) == 0 {
				last--
			}
			expected += last - first + 1
		}
		if n == 0 {
			return true
		}
		total := 0.0
		for _, v := range tl.Counts(bucket, end)["p"].vals {
			total += v
		}
		return int(total) == expected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Clone returns a copy of the account; only these tests need one.
func (a *CPUAccount) Clone() *CPUAccount {
	out := NewCPUAccount()
	out.Merge(a)
	return out
}

func TestCPUAccountCloneSub(t *testing.T) {
	a := NewCPUAccount()
	a.Add("x", 5*sim.Second)
	base := a.Clone()
	a.Add("x", 3*sim.Second)
	a.Add("y", 2*sim.Second)
	a.Sub(base)
	if a.Seconds("x") != 3 || a.Seconds("y") != 2 {
		t.Fatalf("after sub: x=%v y=%v", a.Seconds("x"), a.Seconds("y"))
	}
	if base.Seconds("x") != 5 {
		t.Fatal("clone aliased the original")
	}
}

// refCPUAccount is the former map-keyed account: each phase adds the same
// float terms in the same order, and totals and JSON follow sorted names.
type refCPUAccount map[string]float64

func (r refCPUAccount) total() float64 {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	t := 0.0
	for _, n := range names {
		t += r[n]
	}
	return t
}

// The slice-backed account must read bit-identically to the map it
// replaced through every operation: Seconds, Phases, Total, Merge, Sub,
// Clone and the JSON bytes.
func TestCPUAccountMatchesMap(t *testing.T) {
	phases := []string{"parse", "map-fn", "sort", "combine", "merge", "reduce-fn", "hash", "state-update", "framework"}
	rng := rand.New(rand.NewSource(7))
	var accts []*CPUAccount
	var refs []refCPUAccount
	for n := 0; n < 4; n++ {
		a, ref := NewCPUAccount(), refCPUAccount{}
		for i := 0; i < 500; i++ {
			phase := phases[rng.Intn(len(phases)-n)] // later accounts use fewer phases
			d := sim.Duration(rng.Int63n(int64(sim.Second)))
			a.Add(phase, d)
			ref[phase] += d.Seconds()
		}
		accts, refs = append(accts, a), append(refs, ref)
	}
	merged, mref := accts[3].Clone(), refCPUAccount{}
	for p, s := range refs[3] {
		mref[p] += s
	}
	for i := 0; i < 3; i++ {
		merged.Merge(accts[i])
		for p, s := range refs[i] {
			mref[p] += s
		}
	}
	merged.Sub(accts[1])
	for p, s := range refs[1] {
		mref[p] -= s
	}
	accts, refs = append(accts, merged), append(refs, mref)
	for i, a := range accts {
		ref := refs[i]
		want := make([]string, 0, len(ref))
		for p := range ref {
			want = append(want, p)
		}
		sort.Strings(want)
		if got := a.Phases(); !slices.Equal(got, want) {
			t.Fatalf("account %d phases %v, want %v", i, got, want)
		}
		for _, p := range phases {
			if got := a.Seconds(p); math.Float64bits(got) != math.Float64bits(ref[p]) {
				t.Fatalf("account %d %s = %v, want %v", i, p, got, ref[p])
			}
		}
		if got, want := a.Total(), ref.total(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("account %d total %v, want %v", i, got, want)
		}
		got, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(map[string]float64(ref))
		if string(got) != string(wantJSON) {
			t.Fatalf("account %d JSON %s, want %s", i, got, wantJSON)
		}
	}
}

// Node.Compute charges the account on every call: a known phase costs no
// allocation.
func TestCPUAccountAddAllocatesNothing(t *testing.T) {
	a := NewCPUAccount()
	a.Add("merge", sim.Second)
	a.Add("sort", sim.Second)
	if avg := testing.AllocsPerRun(1000, func() { a.Add("sort", sim.Millisecond) }); avg != 0 {
		t.Fatalf("Add allocates %.1f/op", avg)
	}
}
