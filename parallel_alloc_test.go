package onepass

import (
	"runtime"
	"testing"
)

// TestPooledAllocationParity: running closures on the pool must cost the
// host what running them inline does. User-function scratch is owned by the
// worker that executes a closure, so a pooled run builds at most Parallelism
// copies of it; when every map attempt and reduce side built its own, the
// sessionization jobs below allocated 1.2x the bytes of their inline runs.
// Each run gets a fresh workload, so neither side starts with warm scratch.
func TestPooledAllocationParity(t *testing.T) {
	cc := DefaultClickConfig()
	cases := []struct {
		engine Engine
		make   func() *Workload
	}{
		{Hadoop, func() *Workload { return Sessionization(cc) }},
		{MapReduceOnline, func() *Workload { return Sessionization(cc) }},
		{HashIncremental, func() *Workload { return PerUserCount(cc) }},
	}
	measure := func(e Engine, w *Workload, workers int) (bytes, objects uint64) {
		cfg := DefaultConfig()
		cfg.Engine = e
		cfg.BlockSize = 128 << 10
		cfg.Reducers = 20
		cfg.MemoryPerTask = 256 << 10
		cfg.DiscardOutput = true
		cfg.Parallelism = workers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RunWorkload(cfg, w, 4<<20)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s on %v, parallelism %d: %v", w.Name, e, workers, err)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	for _, tc := range cases {
		inlineBytes, inlineObjects := measure(tc.engine, tc.make(), 1)
		pooledBytes, pooledObjects := measure(tc.engine, tc.make(), 4)
		name := tc.make().Name
		t.Logf("%s on %v: inline %d B in %d objects, pooled %d B in %d objects (%.3fx, %.3fx)",
			name, tc.engine, inlineBytes, inlineObjects, pooledBytes, pooledObjects,
			float64(pooledBytes)/float64(inlineBytes), float64(pooledObjects)/float64(inlineObjects))
		if float64(pooledBytes) > 1.05*float64(inlineBytes) {
			t.Errorf("%s on %v: pooled run allocated %d bytes, over 1.05x the inline run's %d",
				name, tc.engine, pooledBytes, inlineBytes)
		}
		if float64(pooledObjects) > 1.05*float64(inlineObjects) {
			t.Errorf("%s on %v: pooled run allocated %d objects, over 1.05x the inline run's %d",
				name, tc.engine, pooledObjects, inlineObjects)
		}
	}
}
