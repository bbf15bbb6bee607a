package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"onepass/internal/sim"
)

func sampleLog() *Log {
	l := NewLog()
	l.Emit(Event{At: 0, Type: TaskStart, Name: "map", Engine: "hadoop", Node: 0, Task: 0})
	l.Emit(Event{At: 1500, Type: CombineFlush, Name: "combine", Engine: "hadoop", Node: 0, Task: 0,
		Args: []Arg{Num("pairs", 12)}})
	l.Emit(Event{At: 2000, Type: TaskFinish, Name: "map", Engine: "hadoop", Node: 0, Task: 0})
	l.Emit(Event{At: 2000, Type: ShuffleTransfer, Name: "shuffle", Engine: "hadoop", Node: 1, Task: 0,
		Args: []Arg{Str("mode", "pull"), Num("bytes", 4096)}})
	l.Emit(Event{At: 2500, Type: TaskStart, Name: "reduce", Engine: "hadoop", Node: 1, Task: 0})
	l.Emit(Event{At: 3000, Type: Spill, Name: "reduce-spill", Engine: "hadoop", Node: 1, Task: 0,
		Args: []Arg{Num("bytes", 1<<20)}})
	l.Emit(Event{At: 4000, Type: TaskFinish, Name: "reduce", Engine: "hadoop", Node: 1, Task: 0})
	return l
}

func TestLogRecordsInOrder(t *testing.T) {
	l := sampleLog()
	if l.Len() != 7 {
		t.Fatalf("Len = %d, want 7", l.Len())
	}
	evs := l.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order at %d: %v after %v", i, evs[i].At, evs[i-1].At)
		}
	}
	if evs[0].Type != TaskStart || evs[6].Type != TaskFinish || evs[5].Name != "reduce-spill" {
		t.Fatalf("events not kept as emitted: %+v", evs)
	}
}

func TestTypeSpan(t *testing.T) {
	for _, tc := range []struct {
		typ          Type
		isSpan, open bool
	}{
		{TaskStart, true, true},
		{TaskFinish, true, false},
		{PhaseStart, true, true},
		{PhaseEnd, true, false},
		{Spill, false, false},
		{EarlyAnswer, false, false},
	} {
		isSpan, open := tc.typ.Span()
		if isSpan != tc.isSpan || open != tc.open {
			t.Errorf("%s.Span() = %v,%v want %v,%v", tc.typ, isSpan, open, tc.isSpan, tc.open)
		}
	}
}

func TestTrackSeparatesMapAndReduce(t *testing.T) {
	mapEv := Event{Type: TaskStart, Name: "map", Node: 0, Task: 3}
	redEv := Event{Type: TaskStart, Name: "reduce", Node: 0, Task: 3}
	mt, ml := trackOf(mapEv)
	rt, rl := trackOf(redEv)
	if mt == rt {
		t.Fatalf("map and reduce task 3 share track %d", mt)
	}
	if !strings.HasPrefix(ml, "map-") || !strings.HasPrefix(rl, "reduce-") {
		t.Fatalf("labels %q / %q", ml, rl)
	}
	// Map-side internals ride the map track even without a "map" span name.
	push := Event{Type: ShuffleTransfer, Name: "shuffle", Node: 0, Task: 3,
		Args: []Arg{Str("mode", "push")}}
	pt, _ := trackOf(push)
	if pt != mt {
		t.Fatalf("push transfer track %d, want map track %d", pt, mt)
	}
	nodeEv := Event{Type: Fault, Node: 2, Task: -1}
	if nt, nl := trackOf(nodeEv); nt != 0 || nl != "node" {
		t.Fatalf("node event track = %d %q", nt, nl)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	var sawMeta, sawBegin, sawEnd, sawInstant bool
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		switch ph {
		case "M":
			sawMeta = true
			continue
		case "B":
			sawBegin = true
		case "E":
			sawEnd = true
		case "i":
			sawInstant = true
			if s, _ := ev["s"].(string); s != "t" {
				t.Fatalf("instant scope = %q, want t", s)
			}
		}
		args, ok := ev["args"].(map[string]interface{})
		if !ok {
			t.Fatalf("event missing args: %v", ev)
		}
		for _, k := range []string{"engine", "node", "task"} {
			if _, ok := args[k]; !ok {
				t.Fatalf("args missing %q: %v", k, ev)
			}
		}
	}
	if !sawMeta || !sawBegin || !sawEnd || !sawInstant {
		t.Fatalf("missing phases: %v", phases)
	}
	if phases["B"] != phases["E"] {
		t.Fatalf("unbalanced spans: %d B vs %d E", phases["B"], phases["E"])
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	l := sampleLog()
	if err := l.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated export differs")
	}
}

func TestFormatTS(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{
		{0, "0"},
		{1000, "1"},
		{1500, "1.5"},
		{1234567, "1234.567"},
		{42, "0.042"},
	} {
		if got := formatTS(tc.ns); got != tc.want {
			t.Errorf("formatTS(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}

func TestFormatNum(t *testing.T) {
	if got := formatNum(4096); got != "4096" {
		t.Errorf("formatNum(4096) = %q", got)
	}
	if got := formatNum(0.25); got != "0.25" {
		t.Errorf("formatNum(0.25) = %q", got)
	}
}

func TestGantt(t *testing.T) {
	out := sampleLog().Gantt(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + map track on node 0 + reduce track on node 1.
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "map-0000") || !strings.Contains(lines[1], "█") {
		t.Fatalf("map row wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "reduce-0000") || !strings.Contains(lines[2], "•") {
		t.Fatalf("reduce row missing spill mark: %q", lines[2])
	}
}

func TestGanttEmpty(t *testing.T) {
	if got := NewLog().Gantt(40); got != "(no events)\n" {
		t.Fatalf("empty gantt = %q", got)
	}
	l := NewLog()
	l.Emit(Event{At: sim.Time(0), Type: Fault, Node: 0, Task: -1})
	if got := l.Gantt(40); got != "(no events)\n" {
		t.Fatalf("zero-horizon gantt = %q", got)
	}
}
