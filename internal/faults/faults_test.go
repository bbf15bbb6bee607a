package faults

import (
	"math"
	"reflect"
	"testing"

	"onepass/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"fail@2s:n1",
		"disk-slow@1s+5s:n2x8",
		"straggler@0s:n3x50,net-slow@4s:n0x10",
	}
	for _, spec := range specs {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := s.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
	}
}

func TestParseFields(t *testing.T) {
	s, err := Parse("disk-slow@1.5+30:n2x4")
	if err != nil {
		t.Fatal(err)
	}
	want := Fault{Kind: DiskSlow, Node: 2, At: sim.Seconds(1.5), For: sim.Seconds(30), Factor: 4}
	if len(s.Faults) != 1 || s.Faults[0] != want {
		t.Fatalf("got %+v, want %+v", s.Faults, want)
	}
	// Factor defaults to 8 when omitted.
	s, err = Parse("straggler@0:n1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Faults[0].Factor != 8 {
		t.Errorf("default factor = %g, want 8", s.Faults[0].Factor)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"fail",              // no @
		"fail@2s",           // no target
		"melt@2s:n1",        // unknown kind
		"fail@2s:node1",     // bad target
		"fail@abc:n1",       // bad time
		"disk-slow@1s:n1xq", // bad factor
		// Specs String could not render back (testdata/fuzz/FuzzFaultsParse).
		"fail@1s+2s:n1",       // window on a fail
		"fail@1s:n1x5",        // factor on a fail
		"disk-slow@1s+-1s:n0", // negative window
		"straggler@0:n0x0",    // factor not positive
		"fail@1e6s:n1",        // rendered with an exponent
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := Schedule{Faults: []Fault{
		{Kind: NodeFailure, Node: 1, At: sim.Seconds(2)},
		{Kind: DiskSlow, Node: 0, At: 0, Factor: 4},
	}}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	bad := []Schedule{
		{Faults: []Fault{{Kind: NodeFailure, Node: 9, At: 0}}},                        // node range
		{Faults: []Fault{{Kind: NodeFailure, Node: 0, At: -sim.Seconds(1)}}},          // negative time
		{Faults: []Fault{{Kind: Straggler, Node: 0, At: 0, Factor: 0.5}}},             // factor < 1
		{Faults: []Fault{{Kind: NodeFailure, Node: 0}, {Kind: NodeFailure, Node: 1}}}, // kills whole cluster
	}
	for i, s := range bad {
		if err := s.Validate(2); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

// TestScheduleStringParseRoundTrip is the property test in the structural
// direction: for generated schedules s, Parse(s.String()) must reproduce s
// field for field. Chaos draws injection times as raw nanosecond values, so
// this pins both the %g seconds rendering (full float precision) and the
// round-to-nearest-ns reparse — truncation loses 1 ns — and the
// terminal-fault factor (String omits it, so Parse must not default it to 8
// for fail faults).
func TestScheduleStringParseRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		s := Chaos(seed, 10, sim.Seconds(97.3))
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("seed %d: Parse(%q): %v", seed, s.String(), err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("seed %d: round trip broke:\n  in:  %+v\n  out: %+v\n  via %q",
				seed, s, got, s.String())
		}
	}
	// Hand-built schedules exercising the grammar corners Chaos never emits:
	// fractional windows, factor 1, and sub-second times.
	hand := Schedule{Faults: []Fault{
		{Kind: NodeFailure, Node: 3, At: sim.Millisecond * 7},
		{Kind: DiskSlow, Node: 0, At: sim.Seconds(0.25), For: sim.Seconds(1.125), Factor: 1},
		{Kind: Straggler, Node: 9, At: 0, Factor: 2.5},
	}}
	got, err := Parse(hand.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", hand.String(), err)
	}
	if !reflect.DeepEqual(got, hand) {
		t.Fatalf("hand-built round trip broke:\n  in:  %+v\n  out: %+v", hand, got)
	}
}

// FuzzFaultsParse extends TestScheduleStringParseRoundTrip to arbitrary
// input: whatever schedule Parse accepts, Parse(s.String()) reproduces.
func FuzzFaultsParse(f *testing.F) {
	for _, spec := range []string{
		"fail@2s:n1",
		"disk-slow@1s+5s:n2x8",
		"straggler@0s:n3x50,net-slow@4s:n0x10",
		"disk-slow@1.5+30:n2x4",
		"straggler@0:n1",
		Chaos(7, 10, sim.Seconds(97.3)).String(),
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q) rendered as %q, which does not parse: %v", spec, s.String(), err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q parses to %+v", spec, s, s.String(), got)
		}
	})
}

func TestValidateRejectsNonFiniteAndNegativeWindow(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	bad := []Schedule{
		{Faults: []Fault{{Kind: DiskSlow, Node: 0, Factor: nan}}},                                                    // NaN factor
		{Faults: []Fault{{Kind: NetDegrade, Node: 0, Factor: inf}}},                                                  // +Inf factor
		{Faults: []Fault{{Kind: Straggler, Node: 0, Factor: math.Inf(-1)}}},                                          // -Inf factor
		{Faults: []Fault{{Kind: DiskSlow, Node: 0, Factor: 4, For: -sim.Seconds(1)}}},                                // negative window
		{Faults: []Fault{{Kind: NodeFailure, Node: 0, For: -sim.Millisecond}, {Kind: DiskSlow, Node: 1, Factor: 2}}}, // negative window, terminal
	}
	for i, s := range bad {
		if err := s.Validate(4); err == nil {
			t.Errorf("bad schedule %d accepted: %+v", i, s.Faults)
		}
	}
	// The spelled-out case from the issue: NaN < 1 is false, so the old check
	// let this through.
	if s, err := Parse("disk-slow@1s:n0xNaN"); err == nil {
		if verr := s.Validate(4); verr == nil {
			t.Error("disk-slow@1s:n0xNaN validated — non-finite factor accepted")
		}
	}
}

func TestParseRejectsNonFiniteTimes(t *testing.T) {
	for _, spec := range []string{
		"fail@NaN:n1",
		"fail@Inf:n1",
		"disk-slow@1s+NaNs:n0x2",
		"disk-slow@1s+Infs:n0x2",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error for non-finite time", spec)
		}
	}
}

func TestChaosDeterministicAndValid(t *testing.T) {
	a := Chaos(7, 10, sim.Seconds(60))
	b := Chaos(7, 10, sim.Seconds(60))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules:\n%v\n%v", a, b)
	}
	if err := a.Validate(10); err != nil {
		t.Fatalf("chaos schedule invalid: %v", err)
	}
	fails := 0
	for _, f := range a.Faults {
		if f.Kind.Terminal() {
			fails++
		}
		if f.At > sim.Seconds(60) {
			t.Errorf("fault at %v beyond horizon", f.At)
		}
	}
	if fails != 1 {
		t.Errorf("chaos schedule has %d failures, want exactly 1", fails)
	}
	if c := Chaos(8, 10, sim.Seconds(60)); reflect.DeepEqual(a, c) {
		t.Error("different seeds gave identical schedules")
	}
}
