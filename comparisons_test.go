package onepass

import (
	"encoding/json"
	"os"
	"testing"

	"onepass/internal/workloads"
)

// Every counted comparison is charged to virtual CPU, so the number of
// comparator calls the map-side sort and the reduce-side merge heap make IS
// the cost model. Swapping pdqsort or the binary heap for another algorithm
// — or changing a tie-break — moves these totals even when every output
// stays right. ci/comparison-counts.json pins them for 8 MB of
// sessionization on the two sort-merge engines, at DefaultConfig with 20
// reducers, 1 MB blocks and discarded output — the configuration of
// `runjob -workload sessionization -engine E -size 8MB -reducers 20 -block
// 1MB -json`; regenerate it with that command only for an intended
// cost-model change.
func TestComparisonCountsPinned(t *testing.T) {
	raw, err := os.ReadFile("ci/comparison-counts.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hadoop", "mapreduce-online"} {
		if want[name] == nil {
			t.Fatalf("ci/comparison-counts.json pins no counts for %s", name)
		}
		e, err := ParseEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Engine = e
		cfg.Reducers = 20
		cfg.BlockSize = 1 << 20
		cfg.DiscardOutput = true
		w, err := workloads.ByName("sessionization", DefaultClickConfig(), DefaultDocConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWorkload(cfg, w, 8<<20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ctr := range []string{"sort.comparisons", "merge.comparisons"} {
			if got, pinned := res.Counters.Get(ctr), want[name][ctr]; got != pinned {
				t.Errorf("%s: %s = %.0f, pinned %.0f in ci/comparison-counts.json", name, ctr, got, pinned)
			}
		}
	}
}
