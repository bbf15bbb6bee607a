package cluster

import (
	"math"
	"testing"

	"onepass/internal/disk"
	"onepass/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.CoresPerNode = 2
	return cfg
}

// profileOf names the disk profile dev serves at: the one under which a
// fresh device takes as long over the same random read.
func profileOf(c *Cluster, dev *disk.Device) string {
	readTime := func(env *sim.Env, d *disk.Device) (took sim.Duration) {
		env.Go("probe", func(p *sim.Proc) {
			start := p.Now()
			d.Read(p, 1<<20, false)
			took = p.Now().Sub(start)
		})
		env.Run()
		return took
	}
	got := readTime(c.Env, dev)
	for _, prof := range []disk.Profile{disk.HDD, disk.SSD} {
		env := sim.New()
		if readTime(env, disk.NewDevice(env, "ref", prof)) == got {
			return prof.Name
		}
	}
	return "unknown"
}

func TestTopologyBaseline(t *testing.T) {
	c := New(sim.New(), testConfig())
	if len(c.Nodes()) != 4 || len(c.ComputeNodes()) != 4 || len(c.StorageNodes()) != 4 {
		t.Fatal("baseline topology should use all nodes for everything")
	}
	n := c.Node(0)
	if n.DFSDevice() != n.ScratchDevice() {
		t.Fatal("baseline shares one device between DFS and scratch")
	}
	if c.TotalCores() != 8 {
		t.Fatalf("cores = %d", c.TotalCores())
	}
}

func TestTopologySSD(t *testing.T) {
	cfg := testConfig()
	cfg.SSDIntermediate = true
	c := New(sim.New(), cfg)
	n := c.Node(0)
	if n.DFSDevice() == n.ScratchDevice() {
		t.Fatal("SSD topology must separate scratch from DFS")
	}
	if got := profileOf(c, n.ScratchDevice()); got != "ssd" {
		t.Fatalf("scratch device = %v", got)
	}
	if got := profileOf(c, n.DFSDevice()); got != "hdd" {
		t.Fatalf("dfs device = %v", got)
	}
}

func TestTopologySplit(t *testing.T) {
	cfg := testConfig()
	cfg.SplitStorage = true
	c := New(sim.New(), cfg)
	if len(c.StorageNodes()) != 2 || len(c.ComputeNodes()) != 2 {
		t.Fatalf("split = %d storage / %d compute", len(c.StorageNodes()), len(c.ComputeNodes()))
	}
	if c.StorageNodes()[0].ID == c.ComputeNodes()[0].ID {
		t.Fatal("storage and compute sets must be disjoint")
	}
	if c.TotalCores() != 4 {
		t.Fatalf("compute cores = %d", c.TotalCores())
	}
}

func TestComputeChargesCoreAndPhase(t *testing.T) {
	env := sim.New()
	c := New(env, testConfig())
	n := c.Node(0)
	env.Go("w", func(p *sim.Proc) {
		n.Compute(p, 2*sim.Second, "map-fn")
		n.Compute(p, sim.Second, "sort")
	})
	env.Run()
	if got := n.cpuByPhase.Seconds("map-fn"); got != 2 {
		t.Fatalf("map-fn = %v", got)
	}
	if got := n.cpuByPhase.Share("sort"); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("sort share = %v", got)
	}
	if got := n.CPUBusyIntegral(); got != 3 {
		t.Fatalf("busy = %v", got)
	}
	if got := c.CPUAccount().Total(); got != 3 {
		t.Fatalf("cluster total = %v", got)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	env := sim.New()
	c := New(env, testConfig())
	env.Go("w", func(p *sim.Proc) { c.Node(0).Compute(p, 0, "x") })
	env.Run()
	if env.Now() != 0 {
		t.Fatal("zero compute should not advance time")
	}
}

func TestCoresLimitParallelism(t *testing.T) {
	env := sim.New()
	c := New(env, testConfig()) // 2 cores per node
	n := c.Node(1)
	for i := 0; i < 4; i++ {
		env.Go("w", func(p *sim.Proc) { n.Compute(p, sim.Second, "x") })
	}
	env.Run()
	if got := env.Now().Seconds(); got != 2 {
		t.Fatalf("4 tasks on 2 cores took %vs, want 2s", got)
	}
}

func TestIowaitAccounting(t *testing.T) {
	env := sim.New()
	c := New(env, testConfig())
	n := c.Node(0)
	env.Go("io", func(p *sim.Proc) {
		// Pure I/O with idle CPUs: the whole wait is iowait.
		n.DFSDevice().Read(p, 100e6, true) // ~1s on HDD
	})
	env.Run()
	elapsed := env.Now().Seconds()
	if got := n.IowaitIntegral(); math.Abs(got-elapsed) > 1e-6 {
		t.Fatalf("iowait = %v, want %v (one core idle-waiting)", got, elapsed)
	}
}

func TestIowaitZeroWhenCPUSaturated(t *testing.T) {
	env := sim.New()
	cfg := testConfig()
	cfg.CoresPerNode = 1
	c := New(env, cfg)
	n := c.Node(0)
	// One core, fully busy, while I/O also pending: no *idle* core is
	// waiting, so iowait stays zero (matches how iostat attributes iowait).
	env.Go("cpu", func(p *sim.Proc) { n.Compute(p, 2*sim.Second, "x") })
	env.Go("io", func(p *sim.Proc) {
		p.Yield()
		n.DFSDevice().Read(p, 100e6, true)
	})
	env.Run()
	// I/O outlives the compute, so some tail iowait exists; but during the
	// first 2s there must be none. Measure precisely: the read takes ~1.02s
	// starting at t~0, compute holds the core 0..2s, so iowait only accrues
	// where read extends past 2s — it doesn't. Expect ~0.
	if got := n.IowaitIntegral(); got > 0.01 {
		t.Fatalf("iowait = %v, want ~0 while CPU saturated", got)
	}
}

func TestClusterDiskByteAggregation(t *testing.T) {
	env := sim.New()
	cfg := testConfig()
	cfg.SSDIntermediate = true
	c := New(env, cfg)
	env.Go("w", func(p *sim.Proc) {
		c.Node(0).DFSDevice().Write(p, 1000, true)
		c.Node(0).ScratchDevice().Write(p, 500, true)
		c.Node(1).DFSDevice().Read(p, 300, true)
	})
	env.Run()
	if got := c.DiskBytesWritten(); got != 1500 {
		t.Fatalf("written = %v", got)
	}
	if got := c.DiskBytesRead(); got != 300 {
		t.Fatalf("read = %v", got)
	}
}

func TestDefaultConfigMatchesPaperTestbed(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 10 {
		t.Fatalf("nodes = %d, want 10 (paper's cluster)", cfg.Nodes)
	}
	if NodeMemory != 1<<30 {
		t.Fatalf("memory = %d, want 1GB (paper's JVM heap)", NodeMemory)
	}
	c := New(sim.New(), cfg)
	if got := profileOf(c, c.Node(0).DFSDevice()); got != disk.HDD.Name {
		t.Fatalf("primary disk = %s, want HDD", got)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := []Config{
		{Nodes: 0, CoresPerNode: 1},
		{Nodes: 1, CoresPerNode: 0},
		{Nodes: 1, CoresPerNode: 1, SplitStorage: true},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(sim.New(), cfg)
		}()
	}
}
