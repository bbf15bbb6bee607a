package main

import "time"

// span is one timed interval recorded by the harness around a call into a
// layer's public functions. Spans inside the program are a later issue; these
// are taken from outside, so a layer's span covers everything it calls.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the recorder was created
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is used from the
// harness's main goroutine only. A nil recorder records nothing, which is
// how the timed passes run.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int // open span IDs, innermost last
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// start opens a span under the innermost open one and returns the function
// that closes it.
func (r *recorder) start(name string) (end func()) {
	if r == nil {
		return func() {}
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload,
		StartNs: int64(time.Since(r.t0)),
	})
	r.stack = append(r.stack, id)
	return func() {
		r.spans[id-1].EndNs = int64(time.Since(r.t0))
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// totals sums span durations by name, in seconds.
func totals(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.EndNs-s.StartNs) / 1e9
	}
	return out
}

// selfTimes sums, by name, each span's duration minus the part of it its
// direct children cover, in seconds. Children recorded by one goroutine never
// overlap each other, so their durations simply subtract.
func selfTimes(spans []span) map[string]float64 {
	covered := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.EndNs-s.StartNs-covered[s.ID]) / 1e9
	}
	return out
}
