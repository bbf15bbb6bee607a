package metrics

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"onepass/internal/sim"
)

func TestSeriesJSONRoundTrip(t *testing.T) {
	s := NewSeries("cpu-util", "fraction", 250*sim.Millisecond)
	s.Add(0, 0.25)
	s.Add(sim.Time(300*int64(sim.Millisecond)), 0.5)
	s.Add(sim.Time(900*int64(sim.Millisecond)), 1.0/3.0) // non-representable fraction must survive exactly
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Series
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || got.Unit != s.Unit || got.Bucket != s.Bucket {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, s)
	}
	if !reflect.DeepEqual(got.Values(), s.Values()) {
		t.Fatalf("values mismatch: %v vs %v", got.Values(), s.Values())
	}
	// And the re-marshal is byte-identical — run caching depends on it.
	b2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("re-marshal differs:\n%s\n%s", b, b2)
	}
}

func TestSeriesJSONRejectsBadBucket(t *testing.T) {
	var s Series
	if err := json.Unmarshal([]byte(`{"name":"x","unit":"u","bucket":0,"vals":[]}`), &s); err == nil {
		t.Fatal("unmarshal accepted a zero bucket")
	}
}

func TestCountersJSONRoundTrip(t *testing.T) {
	c := NewCounters()
	c.Add("map.input.bytes", 1<<20)
	c.Add("sort.comparisons", 12345.0)
	c.Add("sort.comparisons", 1.0/3.0)
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	got := NewCounters()
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Names(), c.Names()) {
		t.Fatalf("names mismatch: %v vs %v", got.Names(), c.Names())
	}
	for _, n := range c.Names() {
		if got.Get(n) != c.Get(n) {
			t.Fatalf("%s: %v != %v", n, got.Get(n), c.Get(n))
		}
	}
}

func TestCPUAccountJSONRoundTrip(t *testing.T) {
	a := NewCPUAccount()
	a.Add("map-fn", 1500*sim.Millisecond)
	a.Add("sort", 700*sim.Millisecond)
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	got := NewCPUAccount()
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Phases(), a.Phases()) {
		t.Fatalf("phases mismatch: %v vs %v", got.Phases(), a.Phases())
	}
	if got.Total() != a.Total() {
		t.Fatalf("total %v != %v", got.Total(), a.Total())
	}
}

func TestTimelineJSONRoundTrip(t *testing.T) {
	tl := NewTimeline()
	sp := tl.Begin(Span{Name: "map", Node: 2, Task: 7, Attempt: 1})
	sp.End(sim.Time(int64(2 * sim.Second)))
	sp2 := tl.Begin(Span{Name: "reduce", Phase: true, Node: 1, Task: 3, Start: sim.Time(int64(sim.Second))})
	sp2.End(sim.Time(int64(3 * sim.Second)))
	b, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	got := NewTimeline()
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if len(got.Spans()) != 2 {
		t.Fatalf("spans = %d, want 2", len(got.Spans()))
	}
	for i, s := range got.Spans() {
		if o := tl.Spans()[i]; *s != *o {
			t.Fatalf("span %d mismatch: %+v vs %+v", i, s, o)
		}
	}
	if !reflect.DeepEqual(got.Phases(), tl.Phases()) {
		t.Fatalf("phase order mismatch: %v vs %v", got.Phases(), tl.Phases())
	}
}

func TestCountersConcurrentAccumulation(t *testing.T) {
	// The parallel experiment driver can expose one bag to many goroutines;
	// under -race this test proves Add/Get/Names hold up.
	c := NewCounters()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add("shared", 1)
				_ = c.Get("shared")
				_ = c.Names()
			}
		}()
	}
	wg.Wait()
	if got := c.Get("shared"); got != goroutines*perG {
		t.Fatalf("shared = %v, want %v", got, goroutines*perG)
	}
}
