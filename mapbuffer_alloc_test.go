package onepass

import (
	"runtime"
	"testing"

	"onepass/internal/engine"
)

// raceEnabled is set when the race detector is built in (race_test.go).
var raceEnabled bool

// TestMapBufferAllocationPerRecord: a sort-merge map task's output buffer
// lives only as long as its map closure. ExecuteMapWith hands it back to
// the free list at the join, so a task that starts while an earlier one is
// still being charged for its records, sort and output write reuses that
// buffer instead of filling a fresh one. With 64 blocks on 20 map slots,
// hadoop and mapreduce-online allocate 131 and 133 bytes per map input
// record here with the buffer released at the join; 136 and 148 with it
// released at the end of ExecuteMapWith, after its own charges; and 155 and
// 159 with it held to the end of the task. Each bound sits between the first
// figure and the other two.
func TestMapBufferAllocationPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program: 12-15 % more bytes per record here")
	}
	cc := DefaultClickConfig()
	cases := []struct {
		engine Engine
		bound  float64 // bytes per map input record
	}{
		{Hadoop, 134},
		{MapReduceOnline, 140},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Engine = tc.engine
		cfg.BlockSize = 64 << 10 // 64 blocks on 10 nodes' 20 map slots
		cfg.Reducers = 20
		cfg.MemoryPerTask = 256 << 10
		cfg.DiscardOutput = true
		cfg.Parallelism = 1
		w := Sessionization(cc)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunWorkload(cfg, w, 4<<20)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		records := res.Counters.Get(engine.CtrMapInputRecords)
		perRecord := float64(after.TotalAlloc-before.TotalAlloc) / records
		t.Logf("%s on %v: %d bytes for %.0f map input records: %.0f bytes per record",
			w.Name, tc.engine, after.TotalAlloc-before.TotalAlloc, records, perRecord)
		if perRecord > tc.bound {
			t.Errorf("%s on %v: %.0f bytes per map input record, bound %.0f", w.Name, tc.engine, perRecord, tc.bound)
		}
	}
}
