package metrics

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"onepass/internal/sim"
)

// The metric types encode for Result JSON (runjob -json, the fingerprint's
// Result digest) and are never decoded back; these tests read the encoding
// through plain structs and maps.

func TestSeriesJSONEncoding(t *testing.T) {
	s := NewSeries("cpu-util", "fraction", 250*sim.Millisecond)
	s.Add(0, 0.25)
	s.Add(sim.Time(300*int64(sim.Millisecond)), 0.5)
	s.Add(sim.Time(900*int64(sim.Millisecond)), 1.0/3.0) // non-representable fraction must print exactly
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got seriesJSON
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || got.Unit != s.Unit || got.Bucket != s.Bucket {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, s)
	}
	if !reflect.DeepEqual(got.Vals, s.vals) {
		t.Fatalf("values mismatch: %v vs %v", got.Vals, s.vals)
	}
	b2, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("re-marshal differs:\n%s\n%s", b, b2)
	}
}

func TestCountersJSONEncoding(t *testing.T) {
	c := NewCounters()
	c.Add("map.input.bytes", 1<<20)
	c.Add("sort.comparisons", 12345.0)
	c.Add("sort.comparisons", 1.0/3.0)
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(map[string]float64{
		"map.input.bytes":  c.Get("map.input.bytes"),
		"sort.comparisons": c.Get("sort.comparisons"),
	})
	if string(b) != string(want) {
		t.Fatalf("counters JSON %s, want %s", b, want)
	}
}

func TestTimelineJSONEncoding(t *testing.T) {
	tl := NewTimeline()
	sp := tl.Begin(Span{Name: "map", Node: 2, Task: 7, Attempt: 1})
	sp.End(sim.Time(int64(2 * sim.Second)))
	sp2 := tl.Begin(Span{Name: "reduce", Phase: true, Node: 1, Task: 3, Start: sim.Time(int64(sim.Second))})
	sp2.End(sim.Time(int64(3 * sim.Second)))
	b, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	var got []Span
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("spans = %d, want 2", len(got))
	}
	for i, s := range tl.Spans() {
		if got[i] != *s {
			t.Fatalf("span %d mismatch: %+v vs %+v", i, got[i], *s)
		}
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
