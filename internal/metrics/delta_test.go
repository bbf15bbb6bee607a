package metrics

import "testing"

func TestDeltaAppliesInRecordedOrder(t *testing.T) {
	var d Delta
	d.Add("b", 2)
	d.Add("a", 1)
	d.Add("b", 3)
	if len(d.names) != 2 {
		t.Fatalf("%d names, want 2 (repeats fold)", len(d.names))
	}
	c := NewCounters()
	d.ApplyTo(c)
	if got := c.Get("b"); got != 5 {
		t.Errorf("b = %v, want 5", got)
	}
	if got := c.Get("a"); got != 1 {
		t.Errorf("a = %v, want 1", got)
	}
	if len(d.names) != 0 {
		t.Errorf("%d names after ApplyTo, want 0 (reset for reuse)", len(d.names))
	}
	// Reuse after reset starts clean.
	d.Add("a", 7)
	d.ApplyTo(c)
	if got := c.Get("a"); got != 8 {
		t.Errorf("a = %v after reuse, want 8", got)
	}
}
