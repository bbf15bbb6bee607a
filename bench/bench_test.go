package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	odd := summarize([]float64{5, 1, 3})
	if odd.Median != 3 || odd.Min != 1 || odd.Max != 5 || odd.N != 3 {
		t.Errorf("odd: %+v", odd)
	}
	even := summarize([]float64{4, 1, 3, 2})
	if even.Median != 2.5 || even.Min != 1 || even.Max != 4 {
		t.Errorf("even: %+v", even)
	}
	if got := summarize(nil); got.N != 0 || got.Median != 0 {
		t.Errorf("empty: %+v", got)
	}
}

// twoRuns returns two results files that differ only in wall_s and
// records_per_s of one workload.
func twoRuns(wallB, rateB float64) (*allResults, *allResults) {
	mk := func(wall, rate float64) *allResults {
		m := map[string]float64{}
		for _, d := range endToEnd {
			m[d.Name] = 1
		}
		m["wall_s"], m["records_per_s"] = wall, rate
		return &allResults{Seed: 7, Workloads: map[string]*runSet{
			"w": {Timed: &result{Correct: true, Metrics: m, Passes: []sample{{Records: 100}}}},
		}}
	}
	return mk(1.0, 1000), mk(wallB, rateB)
}

func TestCompareBounds(t *testing.T) {
	bound := map[string]float64{}
	for _, d := range endToEnd {
		bound[d.Name] = d.Bound
	}
	wallBound, rateBound := bound["wall_s"], bound["records_per_s"]
	cases := []struct {
		name        string
		wall, rate  float64
		wantOK      bool
		wantRegress string
	}{
		{"within bounds", 1 + 0.9*wallBound, 1000 * (1 - 0.9*rateBound), true, ""},
		{"better", 0.5, 2000, true, ""},
		{"lower-is-better beyond bound", 1 + 1.1*wallBound, 1000, false, "wall_s"},
		{"higher-is-better beyond bound", 1.0, 1000 * (1 - 1.1*rateBound), false, "records_per_s"},
	}
	for _, c := range cases {
		a, b := twoRuns(c.wall, c.rate)
		var out bytes.Buffer
		if ok := compareResults(&out, a, b); ok != c.wantOK {
			t.Errorf("%s: ok=%v, want %v\n%s", c.name, ok, c.wantOK, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "REGRESS") && !strings.Contains(line, c.wantRegress) {
				t.Errorf("%s: unexpected regression line %q", c.name, line)
			}
		}
	}

	a, b := twoRuns(1, 1000)
	b.Workloads["w"].Timed.Metrics["virtual_makespan_s"] = 1 + 2*sameSeedVirtualBound
	if compareResults(&bytes.Buffer{}, a, b) {
		t.Error("the virtual clock repeats exactly on one seed; a 0.2 % drift must fail")
	}
	a, b = twoRuns(1, 1000)
	b.Workloads["w"].Timed.Passes[0].Records = 99
	if compareResults(&bytes.Buffer{}, a, b) {
		t.Error("differing record counts must void the comparison")
	}
	a, b = twoRuns(1, 1000)
	b.Seed = 8
	if compareResults(&bytes.Buffer{}, a, b) {
		t.Error("differing seeds must void the comparison")
	}
}

func TestFoldShares(t *testing.T) {
	samples := []stackSample{
		// Leaf-most repo frame wins over the callers above it.
		{[]string{"runtime.memmove", "onepass/internal/kv.(*Buffer).Add", "onepass/internal/engine.(*Runtime).ExecuteMapWith.func1", "onepass.Run", "main.main"}, 40},
		// Collector time wins over the repo frame that allocated.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "onepass/internal/kv.NewBuffer"}, 20},
		{[]string{"runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, 10},
		// No repo frame: scheduler, then everything else.
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, 10},
		{[]string{"runtime.nanotime", "time.Now"}, 5},
		// Type arguments naming another package must not decide the layer.
		{[]string{"onepass/internal/sim.push[onepass/internal/kv.Pair]", "onepass/internal/sim.(*Env).Run"}, 5},
		// Harness frames, and a repo package without a row of its own.
		{[]string{"main.(*inputCache).gen", "onepass/internal/dfs.(*DFS).ReadBlock"}, 5},
		{[]string{"onepass/internal/loadgen.Drive.func1"}, 5},
	}
	got := foldShares(samples)
	want := map[string]float64{
		"kv.cpu_share": 0.40, "runtime.gc_share": 0.30, "runtime.sched_share": 0.10,
		"runtime.other_share": 0.05, "sim.cpu_share": 0.05, "bench.cpu_share": 0.05,
		"onepass.cpu_share": 0.05,
	}
	var sum float64
	for name, v := range got {
		sum += v
		if math.Abs(v-want[name]) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v, want[name])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if len(got) != len(cpuSharePackages)+3 {
		t.Errorf("%d shares, want one per listed layer plus three runtime rows", len(got))
	}
}

// Canned profile.proto: two samples over three locations, one of which holds
// an inlined call (two lines, innermost first).
func TestParseProfile(t *testing.T) {
	var p protoWriter
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"onepass/internal/kv.Compare", "onepass/internal/kv.MergeStreams", "main.main", "runtime.mallocgc"}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7, 4: 8} {
		var f protoWriter
		f.varint(1, id)
		f.varint(2, name)
		p.bytes(5, f.buf)
	}
	loc := func(id uint64, funcs ...uint64) {
		var l protoWriter
		l.varint(1, id)
		for _, fn := range funcs {
			var line protoWriter
			line.varint(1, fn)
			l.bytes(4, line.buf)
		}
		p.bytes(4, l.buf)
	}
	loc(1, 1, 2) // Compare inlined into MergeStreams
	loc(2, 3)
	loc(3, 4)
	sample := func(weightNs uint64, locs ...uint64) {
		var s protoWriter
		s.packed(1, locs)
		s.packed(2, []uint64{1, weightNs})
		p.bytes(2, s.buf)
	}
	sample(10e6, 1, 2)
	sample(30e6, 3, 1, 2)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.buf)
	zw.Close()
	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"onepass/internal/kv.Compare", "onepass/internal/kv.MergeStreams", "main.main"}, 10e6},
		{[]string{"runtime.mallocgc", "onepass/internal/kv.Compare", "onepass/internal/kv.MergeStreams", "main.main"}, 30e6},
	}
	if len(got) != len(want) {
		t.Fatalf("%d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].weight != want[i].weight || strings.Join(got[i].funcs, ";") != strings.Join(want[i].funcs, ";") {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage parsed without error")
	}
}

type protoWriter struct{ buf []byte }

func (w *protoWriter) varint(field int, v uint64) {
	w.buf = binary.AppendUvarint(w.buf, uint64(field)<<3)
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *protoWriter) bytes(field int, b []byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(field)<<3|2)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *protoWriter) packed(field int, vs []uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	w.bytes(field, b)
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "pass", StartNs: 0, EndNs: 10e9},
		{ID: 2, Parent: 1, Name: "hadoop.job", StartNs: 1e9, EndNs: 4e9},
		{ID: 3, Parent: 1, Name: "hop.job", StartNs: 5e9, EndNs: 9e9},
		{ID: 4, Parent: 3, Name: "inner", StartNs: 6e9, EndNs: 7e9},
	}
	self, total := selfTimes(spans), totals(spans)
	for name, want := range map[string]float64{"pass": 3, "hadoop.job": 3, "hop.job": 3, "inner": 1} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if total["pass"] != 10 || total["hop.job"] != 4 {
		t.Errorf("totals = %v", total)
	}

	rec := newRecorder("w")
	endOuter := rec.start("outer")
	endInner := rec.start("inner")
	endInner()
	endOuter()
	if len(rec.spans) != 2 || rec.spans[1].Parent != rec.spans[0].ID || rec.spans[0].Parent != 0 {
		t.Errorf("recorder nesting: %+v", rec.spans)
	}
	var none *recorder
	none.start("ignored")() // a nil recorder records nothing and does not panic
}

// lastLine decodes the driver's JSON line, rejecting unknown keys.
func lastLine(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64
			Unit  string
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("last line lacks a key: %q", lines[len(lines)-1])
	}
	return *line.Correct, *line.Attempted, *line.Failed, line.Metrics
}

// A pinned checksum that no longer matches must turn the job call into a
// failed operation and the run into an incorrect one (main exits 1 on that).
func TestChecksumMismatchFailsTheRun(t *testing.T) {
	def := workloadDef{name: "corrupted", setup: func(seed uint64, sz sizes, rec *recorder) (instance, error) {
		inst, err := setupSortMerge(seed, sz, rec)
		if err == nil {
			inst.(*jobSet).jobs[0].checksum ^= 1
		}
		return inst, err
	}}
	var out bytes.Buffer
	res, err := runWorkload(&out, def, runOptions{seed: 1998, seconds: 1, quick: true, resultsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("correct=%v failed=%d attempted=%d, want false/1/2", res.Correct, res.Failed, res.Attempted)
	}
	if correct, _, failed, _ := lastLine(t, out.String()); correct || failed != 1 {
		t.Errorf("driver line: correct=%v failed=%d", correct, failed)
	}
	if !strings.Contains(out.String(), "OutputChecksum") {
		t.Errorf("the failure is not explained:\n%s", out.String())
	}
}

// The -quick smoke: every workload, timed and traced, on tiny inputs.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := runWorkload(&out, def, runOptions{seed: 1998, seconds: 1, trace: trace, quick: true, resultsDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, trace, err)
			}
			correct, attempted, failed, metrics := lastLine(t, out.String())
			if !correct || failed != 0 || attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", def.name, trace, correct, attempted, failed, out.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", def.name, trace, len(metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", def.name, trace, d.Name, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, d.Name, v.Value)
				}
			}
			if !trace {
				continue
			}
			var shares float64
			for name, v := range res.Metrics {
				if strings.HasSuffix(name, "_share") && name != "engine.framework_share" {
					shares += v
				}
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("%s: cpu shares sum to %v", def.name, shares)
			}
			if len(res.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", def.name)
			}
			if _, err := os.Stat(dir + "/" + def.name + ".cpu.pprof"); err != nil {
				t.Errorf("%s: CPU profile not saved: %v", def.name, err)
			}
		}
	}
}

// BENCHMARK.json at the repo root is generated from the tables in this
// package (go run ./bench -manifest > BENCHMARK.json) and must match them and
// the driver's limits.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	haveSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		haveSetup = haveSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !haveSetup {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		check(d)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloadDefs) < 2 || len(workloadDefs) > 8 {
		t.Errorf("%d per-layer, %d end-to-end, %d workloads", len(perLayer), len(endToEnd), len(workloadDefs))
	}
	for _, w := range workloadDefs {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the naming rules", w.name)
		}
		seen[w.name] = true
	}
}
