package trace

import "onepass/internal/sim"

// CounterPoint is one sample of a counter track.
type CounterPoint struct {
	At    sim.Time
	Value float64
}

// CounterTrack is a numeric time series rendered as a Perfetto counter
// track ("C" events) alongside the span timeline — cluster utilization,
// queue depths, in-flight work. Tracks are attached to a Log after the run
// (they usually derive from the Result's sampled series or recorded spans),
// and export in attachment order with points in slice order, keeping the
// Chrome bytes deterministic.
type CounterTrack struct {
	Name   string
	Unit   string
	Points []CounterPoint
}

// AddCounterTrack attaches a counter track to the log's Chrome export.
// Tracks with no points are dropped.
func (l *Log) AddCounterTrack(t CounterTrack) {
	if len(t.Points) == 0 {
		return
	}
	l.counters = append(l.counters, t)
}
