package onepass

import (
	"sort"
	"strconv"
	"testing"

	"onepass/internal/engine"
)

// TestChainedTopK runs the full two-stage pipeline — page-frequency count,
// then global top-k over its output — on every engine and checks the final
// ranking against a direct recount.
func TestChainedTopK(t *testing.T) {
	const k = 5
	for _, eng := range Engines() {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			cfg := tinyConfig(eng)
			cl := NewCluster(cfg)
			if err := cl.Register(Dataset{Path: "input/clicks", Size: 256 << 10,
				Gen: PageFrequency(tinyClicks()).Gen}); err != nil {
				t.Fatal(err)
			}
			count := PageFrequency(tinyClicks()).Job
			count.InputPath = "input/clicks"
			count.OutputPath = "out/counts"
			count.RetainOutput = true
			res1, err := cl.RunJob(count)
			if err != nil {
				t.Fatal(err)
			}

			top := TopK(k)
			top.InputPath = "out/counts"
			top.RetainOutput = true
			res2, err := cl.RunJob(top)
			if err != nil {
				t.Fatal(err)
			}
			names, counts := ParseTopK(res2.Output["top"])
			if len(names) != k {
				t.Fatalf("top-k has %d entries", len(names))
			}

			// Verify against a direct sort of stage 1's output.
			type pc struct {
				url string
				n   uint64
			}
			var all []pc
			for url, c := range res1.Output {
				n, _ := strconv.ParseUint(c, 10, 64)
				all = append(all, pc{url, n})
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].n != all[j].n {
					return all[i].n > all[j].n
				}
				return all[i].url < all[j].url
			})
			for i := 0; i < k; i++ {
				if names[i] != all[i].url || counts[i] != all[i].n {
					t.Fatalf("rank %d: got %s=%d, want %s=%d", i, names[i], counts[i], all[i].url, all[i].n)
				}
			}
			// Chained job accounting is job-relative.
			if res2.Makespan <= 0 || res2.CPU.Total() <= 0 {
				t.Fatal("stage 2 result lacks its own accounting")
			}
			if res2.CPU.Total() >= res1.CPU.Total() {
				t.Fatalf("stage 2 CPU %.3f should be far below stage 1's %.3f", res2.CPU.Total(), res1.CPU.Total())
			}
		})
	}
}

func TestChainFromDiscardedOutputFails(t *testing.T) {
	cfg := tinyConfig(Hadoop)
	cl := NewCluster(cfg)
	w := PageFrequency(tinyClicks())
	if err := cl.Register(Dataset{Path: "in", Size: 64 << 10, Gen: w.Gen}); err != nil {
		t.Fatal(err)
	}
	count := w.Job
	count.InputPath = "in"
	count.OutputPath = "counts"
	count.DiscardOutput = true // payloads dropped: nothing to chain from
	if _, err := cl.RunJob(count); err != nil {
		t.Fatal(err)
	}
	top := TopK(3)
	top.InputPath = "counts"
	if _, err := cl.RunJob(top); err == nil {
		t.Fatal("chaining from a discarded output must fail loudly")
	}
}

func TestTrendingPipelineAcrossEngines(t *testing.T) {
	const window = 600
	const k = 2
	var want map[string]string
	for _, eng := range Engines() {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			cfg := tinyConfig(eng)
			cl := NewCluster(cfg)
			w := WindowedTopicCounts(tinyClicks(), window)
			if err := cl.Register(Dataset{Path: "events", Size: 256 << 10, Gen: w.Gen}); err != nil {
				t.Fatal(err)
			}
			counts := w.Job
			counts.InputPath = "events"
			counts.OutputPath = "counts"
			if _, err := cl.RunJob(counts); err != nil {
				t.Fatal(err)
			}
			top := TopKPerWindow(k)
			top.InputPath = "counts"
			top.RetainOutput = true
			res, err := cl.RunJob(top)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Output) == 0 {
				t.Fatal("no windows")
			}
			for win, v := range res.Output {
				names, _ := ParseTopK(v)
				if len(names) == 0 || len(names) > k {
					t.Fatalf("window %s has %d topics", win, len(names))
				}
			}
			if want == nil {
				want = res.Output
				return
			}
			if len(res.Output) != len(want) {
				t.Fatalf("windows = %d, want %d", len(res.Output), len(want))
			}
			for win, v := range want {
				if res.Output[win] != v {
					t.Fatalf("window %s differs across engines", win)
				}
			}
		})
	}
}

// TestChainReadsOnlyPartFiles: a chained job reads the part files directly
// under its predecessor's output path. The hot-key engine's approximate
// early answers live in <output>/early/ and repeat keys the part files
// hold; read as input, they would count those keys twice.
func TestChainReadsOnlyPartFiles(t *testing.T) {
	cfg := tinyConfig(HashHotKey)
	cfg.ApproximateEarly = true
	cfg.MemoryPerTask = 16 << 10
	cl := NewCluster(cfg)
	w := PageFrequency(tinyClicks())
	if err := cl.Register(Dataset{Path: "in", Size: 256 << 10, Gen: w.Gen}); err != nil {
		t.Fatal(err)
	}
	count := w.Job
	count.InputPath = "in"
	count.OutputPath = "counts"
	res1, err := cl.RunJob(count)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Counters.Get("core.hotkey.early.pairs") == 0 {
		t.Fatal("the counting job wrote no early answers: the case tests nothing")
	}
	top := TopK(3)
	top.InputPath = "counts"
	res2, err := cl.RunJob(top)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Counters.Get(engine.CtrMapInputRecords); got != float64(res1.OutputPairs) {
		t.Fatalf("chained job read %.0f records; its input's part files hold %d pairs", got, res1.OutputPairs)
	}
}
