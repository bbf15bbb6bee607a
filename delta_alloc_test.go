package onepass

import (
	"runtime"
	"testing"

	"onepass/internal/engine"
)

// TestRunDeltaAllocationProportional: the delta path's host-side glue keeps
// preserved state in a handful of slabs, so a whole RunDelta — four engine
// jobs plus the glue — allocates a small, fixed number of objects per
// preserved entry (one (block, key) partial or cached final in a merge
// input). The map-per-entry containers this replaced (retained-output maps,
// block → key → partial maps, a key → blocks map per merge) cost several
// objects per entry each: 9.5 and 6.0 here, against 0.3 and 0.2 — the
// engines' own per-key state is arena memory too (memtable.Table), so neither
// side of a RunDelta allocates per key.
func TestRunDeltaAllocationProportional(t *testing.T) {
	cc := tinyClicks()
	cc.Users = 5000
	cases := []struct {
		engine Engine
		w      *Workload
		bound  float64
	}{
		{Resident, PerUserCount(cc), 1},
		{Hadoop, Sessionization(cc), 1},
	}
	for _, tc := range cases {
		cfg := tinyConfig(tc.engine)
		cfg.BlockSize = 32 << 10
		data := Dataset{Path: "input/" + tc.w.Name, Size: 1 << 20, Gen: tc.w.Gen}
		d := tinyDelta(cc, 11, 0.05)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dr, err := RunDelta(cfg, data, tc.w.Job, d)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		entries := dr.Base.Counters.Get(engine.CtrMapInputRecords) + dr.Incremental.Counters.Get(engine.CtrMapInputRecords)
		perEntry := float64(after.Mallocs-before.Mallocs) / entries
		t.Logf("%s on %v: %d objects for %.0f preserved entries: %.2f per entry",
			tc.w.Name, tc.engine, after.Mallocs-before.Mallocs, entries, perEntry)
		if perEntry > tc.bound {
			t.Errorf("%s on %v: %.2f objects per preserved entry, bound %.1f", tc.w.Name, tc.engine, perEntry, tc.bound)
		}
	}
}
