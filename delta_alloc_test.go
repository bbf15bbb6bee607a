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
//
// Bytes follow the data the same way: each output byte of the delta path is
// written once — merge answers are read back from their part files instead
// of a retained second encoding, kept output is encoded straight into the
// file it lands in, and a staged replay copies at most once — so a RunDelta
// allocates a bounded number of bytes per preserved entry. The path that
// copied every flush into the file and kept a second encoding of each merge
// answer read 542 and 1,922 bytes per entry here; writing each byte once
// read 505 and 1,366, and a table that grows without copying its entries
// reads 440 and 1,302. Sessionization's answers are as large as its input,
// so its bound is the one that tells the two apart; per-user-count's are
// counts, and the resident engine publishes its state uncopied either way.
func TestRunDeltaAllocationProportional(t *testing.T) {
	cc := tinyClicks()
	cc.Users = 5000
	cases := []struct {
		engine     Engine
		w          *Workload
		bound      float64 // objects per preserved entry
		bytesBound float64 // bytes per preserved entry
	}{
		{Resident, PerUserCount(cc), 1, 490},
		{Hadoop, Sessionization(cc), 1, 1600},
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
		bytesPerEntry := float64(after.TotalAlloc-before.TotalAlloc) / entries
		t.Logf("%s on %v: %d objects and %d bytes for %.0f preserved entries: %.2f objects and %.0f bytes per entry",
			tc.w.Name, tc.engine, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc, entries, perEntry, bytesPerEntry)
		if perEntry > tc.bound {
			t.Errorf("%s on %v: %.2f objects per preserved entry, bound %.1f", tc.w.Name, tc.engine, perEntry, tc.bound)
		}
		if bytesPerEntry > tc.bytesBound {
			t.Errorf("%s on %v: %.0f bytes per preserved entry, bound %.0f", tc.w.Name, tc.engine, bytesPerEntry, tc.bytesBound)
		}
	}
}
