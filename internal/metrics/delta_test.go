package metrics

import "testing"

func TestDeltaAppliesInRecordedOrder(t *testing.T) {
	var d Delta
	d.Add("b", 2)
	d.Add("a", 1)
	d.Add("b", 3)
	if d.n != 2 {
		t.Fatalf("%d names, want 2 (repeats fold)", d.n)
	}
	c := NewCounters()
	d.ApplyTo(c)
	if got := c.Get("b"); got != 5 {
		t.Errorf("b = %v, want 5", got)
	}
	if got := c.Get("a"); got != 1 {
		t.Errorf("a = %v, want 1", got)
	}
	if d.n != 0 {
		t.Errorf("%d names after ApplyTo, want 0 (reset for reuse)", d.n)
	}
	// Reuse after reset starts clean.
	d.Add("a", 7)
	d.ApplyTo(c)
	if got := c.Get("a"); got != 8 {
		t.Errorf("a = %v after reuse, want 8", got)
	}
}

// TestDeltaPastItsHead: names past the inline head keep their recorded
// order and fold their repeats like the first ones.
func TestDeltaPastItsHead(t *testing.T) {
	var d Delta
	names := []string{"a", "b", "c", "d", "e", "f"}
	for round := 0; round < 2; round++ {
		for i, n := range names {
			d.Add(n, float64(i+1))
		}
	}
	if d.n != len(names) {
		t.Fatalf("%d names, want %d", d.n, len(names))
	}
	c := NewCounters()
	d.ApplyTo(c)
	for i, n := range names {
		if got := c.Get(n); got != float64(2*(i+1)) {
			t.Errorf("%s = %v, want %v", n, got, 2*(i+1))
		}
	}
	d.Add("f", 1)
	if d.n != 1 || d.head[0].name != "f" {
		t.Fatalf("after reuse: %d names, first %q", d.n, d.head[0].name)
	}
}

// TestDeltaAllocatesNothing: a map task's fresh three-name delta, recorded
// and applied, allocates nothing once the counters bag knows the names.
func TestDeltaAllocatesNothing(t *testing.T) {
	c := NewCounters()
	record := func() {
		var d Delta
		d.Add("records", 3)
		d.Add("pairs", 5)
		d.Add("bytes", 70)
		d.ApplyTo(c)
	}
	record()
	if n := testing.AllocsPerRun(100, record); n != 0 {
		t.Fatalf("%.1f allocations per three-name delta, want 0", n)
	}
}
