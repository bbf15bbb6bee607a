package profile

import (
	"maps"
	"slices"

	"onepass/internal/engine"
	"onepass/internal/metrics"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// AttachCounterTracks attaches the standard Perfetto counter tracks to a
// traced run's log: the sampled cluster utilization and byte-flow series
// from the Result, plus in-flight map/reduce task counts derived from its
// recorded spans. Deterministic — both sources are byte-stable across
// intra-run parallelism widths — so traces with counters remain
// golden-testable.
func AttachCounterTracks(log *trace.Log, res *engine.Result) {
	if log == nil || res == nil {
		return
	}
	for _, s := range []struct {
		name   string
		series *metrics.Series
	}{
		{"cpu-util", res.CPUUtil},
		{"cpu-iowait", res.Iowait},
		{"disk-bytes-read", res.BytesRead},
		{"disk-bytes-written", res.BytesWritten},
		{"net-bytes", res.NetBytes},
	} {
		log.AddCounterTrack(seriesTrack(s.name, s.series))
	}
	log.AddCounterTrack(inFlightTrack("maps-in-flight", res.Timeline.Spans(), engine.SpanMap))
	log.AddCounterTrack(inFlightTrack("reduces-in-flight", res.Timeline.Spans(), engine.SpanReduce))
}

// inFlightTrack counts the task spans named task that are open at each
// instant one opens or closes: concurrent map tasks, reducers still running.
// An instant shows its count after all of its transitions, so a slot handing
// over from one task to the next never counts both.
func inFlightTrack(name string, spans []*metrics.Span, task string) trace.CounterTrack {
	delta := make(map[sim.Time]int)
	for _, s := range spans {
		if !s.Phase && s.Name == task {
			delta[s.Start]++
			delta[s.Finish]--
		}
	}
	t := trace.CounterTrack{Name: name, Unit: "tasks"}
	cur := 0
	for _, at := range slices.Sorted(maps.Keys(delta)) {
		cur += delta[at]
		t.Points = append(t.Points, trace.CounterPoint{At: at, Value: float64(cur)})
	}
	return t
}

// seriesTrack converts a sampled series into a stepped counter track, one
// point per bucket at the bucket's start.
func seriesTrack(name string, s *metrics.Series) trace.CounterTrack {
	if s == nil {
		return trace.CounterTrack{}
	}
	t := trace.CounterTrack{Name: name, Unit: s.Unit}
	for i := 0; i < s.Len(); i++ {
		t.Points = append(t.Points, trace.CounterPoint{
			At: sim.Time(sim.Duration(i) * s.Bucket), Value: s.At(i)})
	}
	return t
}
