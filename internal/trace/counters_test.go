package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"onepass/internal/sim"
)

func TestAddCounterTrackDropsEmpty(t *testing.T) {
	l := NewLog()
	l.AddCounterTrack(CounterTrack{Name: "empty"})
	if len(l.counters) != 0 {
		t.Fatal("empty track retained")
	}
	l.AddCounterTrack(CounterTrack{Name: "ok", Points: []CounterPoint{{At: 0, Value: 1}}})
	if len(l.counters) != 1 {
		t.Fatal("non-empty track dropped")
	}
}

func TestWriteChromeCounterEvents(t *testing.T) {
	l := sampleLog()
	l.AddCounterTrack(CounterTrack{Name: "cpu-util", Unit: "frac", Points: []CounterPoint{
		{At: 0, Value: 0.25},
		{At: sim.Time(2000), Value: 1},
	}})
	var buf bytes.Buffer
	if err := l.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var counters int
	var sawCounterProc bool
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		pid, _ := ev["pid"].(float64)
		if ph == "M" && int(pid) == counterPid {
			sawCounterProc = true
		}
		if ph != "C" {
			continue
		}
		counters++
		if int(pid) != counterPid {
			t.Errorf("counter event pid = %v, want %d", pid, counterPid)
		}
		if name, _ := ev["name"].(string); name != "cpu-util" {
			t.Errorf("counter name = %q", name)
		}
		args, _ := ev["args"].(map[string]interface{})
		if _, ok := args["value"]; !ok {
			t.Errorf("counter event missing args.value: %v", ev)
		}
	}
	if counters != 2 {
		t.Fatalf("got %d C events, want 2", counters)
	}
	if !sawCounterProc {
		t.Fatal("missing counters process_name metadata")
	}

	// Attaching tracks keeps the export deterministic.
	var again bytes.Buffer
	if err := l.WriteChrome(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("repeated export with counters differs")
	}
}
