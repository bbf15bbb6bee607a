package onepass

import (
	"strings"
	"testing"
)

func tinyConfig(e Engine) Config {
	cfg := DefaultConfig()
	cfg.Engine = e
	cfg.Nodes = 4
	cfg.CoresPerNode = 2
	cfg.BlockSize = 64 << 10
	cfg.Reducers = 4
	cfg.RetainOutput = true
	return cfg
}

func tinyClicks() ClickConfig {
	c := DefaultClickConfig()
	c.Users = 300
	c.URLs = 150
	return c
}

func TestRunWorkloadAcrossAllEngines(t *testing.T) {
	// Every engine over the public API must agree on the answer.
	var want map[string]string
	for _, e := range Engines() {
		res, err := RunWorkload(tinyConfig(e), PerUserCount(tinyClicks()), 256<<10)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if len(res.Output) == 0 {
			t.Fatalf("%v: empty output", e)
		}
		if want == nil {
			want = res.Output
			continue
		}
		if len(res.Output) != len(want) {
			t.Fatalf("%v: %d keys, want %d", e, len(res.Output), len(want))
		}
		for k, v := range want {
			if res.Output[k] != v {
				t.Fatalf("%v: key %q = %q, want %q", e, res.Output[k], k, v)
			}
		}
	}
}

func TestResultCarriesMetrics(t *testing.T) {
	res, err := RunWorkload(tinyConfig(Hadoop), Sessionization(tinyClicks()), 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("no makespan")
	}
	if res.CPU.Total() <= 0 {
		t.Error("no CPU account")
	}
	if res.CPUUtil.Len() == 0 {
		t.Error("no CPU utilization series")
	}
	if res.Timeline == nil || len(res.Timeline.Spans()) == 0 {
		t.Error("no timeline")
	}
	if !strings.Contains(res.Summary(), "hadoop/sessionization") {
		t.Errorf("summary = %q", res.Summary())
	}
}

func TestEngineStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Engines() {
		s := e.String()
		if s == "" || seen[s] {
			t.Fatalf("bad engine string %q", s)
		}
		seen[s] = true
	}
	if !strings.Contains(Engine(42).String(), "42") {
		t.Fatal("unknown engine string")
	}
}

func TestRunErrors(t *testing.T) {
	cfg := tinyConfig(Hadoop)
	w := PerUserCount(tinyClicks())
	if _, err := Run(cfg, Dataset{Path: "x", Size: 100}, w.Job); err == nil {
		t.Fatal("missing generator must error")
	}
	cfg.Engine = Engine(42)
	if _, err := RunWorkload(cfg, w, 1<<10); err == nil {
		t.Fatal("unknown engine must error")
	}
}

func TestConfigTopologies(t *testing.T) {
	ssd := tinyConfig(Hadoop)
	ssd.SSDIntermediate = true
	resSSD, err := RunWorkload(ssd, Sessionization(tinyClicks()), 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	split := tinyConfig(Hadoop)
	split.SplitStorageCompute = true
	resSplit, err := RunWorkload(split, Sessionization(tinyClicks()), 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if resSSD.OutputPairs == 0 || resSplit.OutputPairs == 0 {
		t.Fatal("topology variants produced no output")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetainOutput = true
	cfg.BlockSize = 64 << 10
	cfg.Reducers = 0 // default: 2 per compute node = 20
	res, err := RunWorkload(cfg, PageFrequency(tinyClicks()), 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get("reduce.tasks"); got != 20 {
		t.Fatalf("default reducers = %v, want 20", got)
	}
}

func TestStreamingDatasetViaAPI(t *testing.T) {
	cfg := tinyConfig(HashIncremental)
	w := PerUserCount(tinyClicks())
	res, err := Run(cfg, Dataset{
		Path: "in", Size: 256 << 10, Gen: w.Gen,
		ArrivalRate: float64(256<<10) / 10, // arrives over 10 virtual seconds
	}, w.Job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.Seconds() < 10 {
		t.Fatalf("makespan %v shorter than the arrival window", res.Makespan)
	}
	if len(res.Output) == 0 {
		t.Fatal("no output")
	}
}

func TestDeterministicAcrossIdenticalRuns(t *testing.T) {
	for _, eng := range []Engine{Hadoop, HashHotKey} {
		run := func() *Result {
			res, err := RunWorkload(tinyConfig(eng), Sessionization(tinyClicks()), 256<<10)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.Makespan != b.Makespan || a.FirstOutputAt != b.FirstOutputAt ||
			a.OutputPairs != b.OutputPairs || a.CPU.Total() != b.CPU.Total() {
			t.Fatalf("%v: nondeterministic runs: %v/%v vs %v/%v", eng,
				a.Makespan, a.FirstOutputAt, b.Makespan, b.FirstOutputAt)
		}
	}
}

func TestSingleBlockDataset(t *testing.T) {
	cfg := tinyConfig(HashIncremental)
	cfg.BlockSize = 1 << 20 // larger than the 64KB dataset: one block
	res, err := RunWorkload(cfg, PerUserCount(tinyClicks()), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get("map.tasks") != 1 {
		t.Fatalf("map tasks = %v, want 1", res.Counters.Get("map.tasks"))
	}
	if len(res.Output) == 0 {
		t.Fatal("no output")
	}
}

func TestProgressThroughPublicAPI(t *testing.T) {
	cfg := tinyConfig(Hadoop)
	w := PerUserCount(tinyClicks())
	job := w.Job
	var mapsDone, reducesDone int
	job.Progress = func(phase string, done, total int) {
		switch phase {
		case "map":
			mapsDone = done
		case "reduce":
			reducesDone = done
		}
	}
	if _, err := Run(cfg, Dataset{Path: "in", Size: 256 << 10, Gen: w.Gen}, job); err != nil {
		t.Fatal(err)
	}
	if mapsDone != 4 || reducesDone != 4 {
		t.Fatalf("progress saw %d maps, %d reduces", mapsDone, reducesDone)
	}
}
