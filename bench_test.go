// The root package's benchmarks. The paper's tables and figures are
// regenerated by cmd/experiments (-exp with an experiment's ID for one
// report), end-to-end wall-clock is measured by bench/, and per-package
// kernels have benchmarks beside their code.
package onepass_test

import (
	"testing"

	"onepass"
	"onepass/internal/loadgen"
	"onepass/internal/service"
)

// BenchmarkHashSmallBlocks runs the small-job fleet's job shape, the regime
// the kernel benchmarks miss: blocks far smaller than a push chunk (16 KB
// against 512 KB) over 10 reducers, where a buffer sized to an option's
// default instead of to the data costs 20-80x the bytes it holds.
// internal/core's TestAllocationProportionalToData bounds its bytes.
func BenchmarkHashSmallBlocks(b *testing.B) {
	clicks := onepass.DefaultClickConfig()
	benchSmallBlocks(b, 128<<10,
		smallBlockJob{onepass.HashIncremental, onepass.PerUserCount(clicks)},
		smallBlockJob{onepass.HashHotKey, onepass.Sessionization(clicks)})
}

// BenchmarkSortMergeSmallBlocks runs the sort-merge engines' map side with
// more blocks than map slots (64 blocks of 16 KB on 20 slots), for
// map-output buffer reuse: a buffer goes back to the free list at its map
// closure's join, and a task starting while an earlier one is still being
// charged maps into it. TestMapBufferAllocationPerRecord bounds its bytes.
func BenchmarkSortMergeSmallBlocks(b *testing.B) {
	clicks := onepass.DefaultClickConfig()
	benchSmallBlocks(b, 1<<20,
		smallBlockJob{onepass.Hadoop, onepass.Sessionization(clicks)},
		smallBlockJob{onepass.MapReduceOnline, onepass.Sessionization(clicks)})
}

// BenchmarkServiceSmallJobs runs a three-tenant fleet of 8-block jobs (128
// KB in 16 KB blocks, fewer blocks than a job's 10 map slots) on hadoop,
// mapreduce-online and hash-incremental, for map-output buffer reuse across
// jobs: the service's jobs share one free list, and a small job maps into
// the buffers earlier ones released. internal/service's
// TestFleetReusesMapBuffersAcrossJobs bounds its bytes.
func BenchmarkServiceSmallJobs(b *testing.B) {
	clicks := onepass.DefaultClickConfig()
	mix := []smallBlockJob{
		{onepass.Hadoop, onepass.Sessionization(clicks)},
		{onepass.MapReduceOnline, onepass.PerUserCount(clicks)},
		{onepass.HashIncremental, onepass.PageFrequency(clicks)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := service.Config{BlockSize: 16 << 10, Reducers: 10}
		for _, tenant := range []string{"a", "b", "c"} {
			cfg.Tenants = append(cfg.Tenants, service.TenantConfig{Name: tenant})
		}
		svc, err := service.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var loads []loadgen.TenantLoad
		for t, j := range mix {
			path := "input/" + j.w.Name
			if err := svc.RegisterInput(path, 128<<10, j.w.Gen); err != nil {
				b.Fatal(err)
			}
			loads = append(loads, loadgen.TenantLoad{
				Tenant: cfg.Tenants[t].Name, Arrival: loadgen.Poisson(int64(1998+t), 200), Jobs: 8,
				Mix: []service.JobRequest{{Engine: j.engine.String(), Job: j.w.Job, InputPath: path}},
			})
		}
		if err := loadgen.Drive(svc, loads); err != nil {
			b.Fatal(err)
		}
		if rep, err := svc.Run(); err != nil || rep.Jobs != 24 {
			b.Fatalf("%d of 24 jobs finished: %v", rep.Jobs, err)
		}
	}
}

// smallBlockJob is one engine's run of one workload.
type smallBlockJob struct {
	engine onepass.Engine
	w      *onepass.Workload
}

// benchSmallBlocks runs each job over size bytes of input in 16 KB blocks
// on the default cluster, 10 reducers, output discarded.
func benchSmallBlocks(b *testing.B, size int64, jobs ...smallBlockJob) {
	cfg := onepass.DefaultConfig()
	cfg.BlockSize = 16 << 10
	cfg.Reducers = 10
	cfg.DiscardOutput = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			cfg.Engine = j.engine
			if _, err := onepass.RunWorkload(cfg, j.w, size); err != nil {
				b.Fatal(err)
			}
		}
	}
}
