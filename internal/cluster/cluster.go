// Package cluster assembles the simulated hardware the paper's experiments
// ran on: nodes with CPU cores, one or two storage devices, a memory budget,
// and a shared network. Three topologies mirror §III: the baseline (one HDD
// per node serving both HDFS and intermediate data), the HDD+SSD variant
// (intermediate data moved to a per-node SSD), and the split architecture
// (dedicated storage nodes and compute nodes, à la S3+EC2).
package cluster

import (
	"fmt"

	"onepass/internal/disk"
	"onepass/internal/metrics"
	"onepass/internal/netsim"
	"onepass/internal/sim"
)

// Config describes a cluster.
type Config struct {
	// Nodes is the total number of worker nodes (the paper used 10 plus a
	// head node; the head node is implicit here).
	Nodes        int
	CoresPerNode int
	// SSDIntermediate adds a second, SSD device per node and directs
	// intermediate data (map output, spills, merges) to it (§III.C).
	SSDIntermediate bool
	// SplitStorage dedicates the first half of the nodes to storage (DFS
	// blocks only) and the second half to computation (§III.C).
	SplitStorage bool
}

// netLatency is every NIC's latency. Like its 1 GbE bandwidth and each
// node's HDD primary device, it is the paper's testbed on every cluster.
const netLatency = 200 * sim.Microsecond

// NodeMemory is every node's memory, the paper's 1 GB JVM heap. A quarter
// of it bounds each task's buffers (map output buffer, reducer merge
// buffer, hash table budgets) unless the job sets its own.
const NodeMemory int64 = 1 << 30

// DefaultConfig mirrors the paper's testbed at simulation scale: 10 worker
// nodes, 4 cores each, 1 GbE, one HDD and NodeMemory per node.
func DefaultConfig() Config {
	return Config{
		Nodes:        10,
		CoresPerNode: 4,
	}
}

// Node is one machine.
type Node struct {
	ID    int
	env   *sim.Env
	cores *sim.Resource

	// dfsDev backs DFS blocks and job output; scratchStore holds
	// intermediate data. They share a device unless the SSD topology is
	// active.
	dfsDev, scratchDev *disk.Device
	scratchStore       *disk.Store

	cpuByPhase *metrics.CPUAccount

	// iowait accounting: integral over time of min(idle cores, processes
	// blocked on this node's disks), in core-seconds.
	busyCores      int
	ioPending      int
	lastChange     sim.Time
	iowaitIntegral float64

	failed  bool
	cpuSlow float64
}

// Cluster is the full simulated testbed.
type Cluster struct {
	Env   *sim.Env
	Net   *netsim.Network
	nodes []*Node
	cfg   Config
}

// New builds a cluster per cfg.
func New(env *sim.Env, cfg Config) *Cluster {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		panic("cluster: need positive node and core counts")
	}
	if cfg.SplitStorage && cfg.Nodes < 2 {
		panic("cluster: split topology needs at least 2 nodes")
	}
	c := &Cluster{Env: env, cfg: cfg, Net: netsim.New(env, cfg.Nodes, netsim.GigabitEthernet, netLatency)}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:         i,
			env:        env,
			cores:      env.NewResource(fmt.Sprintf("node%d-cpu", i), cfg.CoresPerNode),
			cpuByPhase: metrics.NewCPUAccount(),
		}
		n.cores.OnChange = func(now sim.Time, inUse, _ int) {
			n.advance(now)
			n.busyCores = inUse
		}
		primary := disk.NewDevice(env, fmt.Sprintf("node%d-hdd", i), disk.HDD)
		n.watchDevice(primary)
		n.dfsDev, n.scratchDev = primary, primary
		if cfg.SSDIntermediate {
			n.scratchDev = disk.NewDevice(env, fmt.Sprintf("node%d-ssd", i), disk.SSD)
			n.watchDevice(n.scratchDev)
		}
		n.scratchStore = disk.NewStore(n.scratchDev)
		c.nodes = append(c.nodes, n)
	}
	return c
}

func (n *Node) watchDevice(d *disk.Device) {
	var pending int
	d.OnChange(func(now sim.Time, inUse, waiting int) {
		n.advance(now)
		n.ioPending += inUse + waiting - pending
		pending = inUse + waiting
	})
}

// advance accrues the iowait integral up to now.
func (n *Node) advance(now sim.Time) {
	dt := now.Sub(n.lastChange).Seconds()
	if dt > 0 {
		idle := n.cores.Cap() - n.busyCores
		blocked := n.ioPending
		if blocked > idle {
			blocked = idle
		}
		if blocked > 0 {
			n.iowaitIntegral += float64(blocked) * dt
		}
	}
	n.lastChange = now
}

// Nodes returns all nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given id.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// ComputeNodes returns the nodes that run map/reduce tasks.
func (c *Cluster) ComputeNodes() []*Node {
	if c.cfg.SplitStorage {
		return c.nodes[c.cfg.Nodes/2:]
	}
	return c.nodes
}

// StorageNodes returns the nodes that host DFS blocks.
func (c *Cluster) StorageNodes() []*Node {
	if c.cfg.SplitStorage {
		return c.nodes[:c.cfg.Nodes/2]
	}
	return c.nodes
}

// Cores returns the node's CPU resource capacity.
func (n *Node) Cores() int { return n.cores.Cap() }

// ScratchStore returns the store for intermediate data.
func (n *Node) ScratchStore() *disk.Store { return n.scratchStore }

// DFSDevice returns the device backing DFS data.
func (n *Node) DFSDevice() *disk.Device { return n.dfsDev }

// ScratchDevice returns the device backing intermediate data.
func (n *Node) ScratchDevice() *disk.Device { return n.scratchDev }

// Compute charges d of CPU on one core, attributed to phase. It blocks p
// until a core is free and the work is done.
func (n *Node) Compute(p *sim.Proc, d sim.Duration, phase string) {
	if d <= 0 {
		return
	}
	if n.cpuSlow > 1 {
		d = sim.Duration(float64(d) * n.cpuSlow)
	}
	n.cores.Use(p, 1, d)
	n.cpuByPhase.Add(phase, d)
}

// SetCPUSlowdown scales all subsequent CPU work on the node by factor — the
// straggler fault. Factors below 1 reset to full speed. Work already holding
// a core is unaffected.
func (n *Node) SetCPUSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	n.cpuSlow = factor
}

// SetDiskSlowdown scales service times on every device the node owns — the
// disk-degradation fault. Factors below 1 reset to full speed.
func (n *Node) SetDiskSlowdown(factor float64) {
	n.dfsDev.SetSlowdown(factor)
	if n.scratchDev != n.dfsDev {
		n.scratchDev.SetSlowdown(factor)
	}
}

// Fail marks the node as dead: schedulers stop assigning work to it and
// its persisted map outputs are treated as lost. In-flight operations run
// to completion (the failure model is "machine lost between tasks", which
// is where Hadoop's fault-tolerance mechanisms engage).
func (n *Node) Fail() { n.failed = true }

// Failed reports whether the node has been failed.
func (n *Node) Failed() bool { return n.failed }

// CPUBusyIntegral returns cumulative core-seconds of CPU use on the node.
func (n *Node) CPUBusyIntegral() float64 { return n.cores.BusyIntegral() }

// IowaitIntegral returns cumulative core-seconds idle-while-disk-pending.
func (n *Node) IowaitIntegral() float64 {
	n.advance(n.env.Now())
	return n.iowaitIntegral
}

// DiskBytesRead returns cumulative bytes read across the node's devices.
func (n *Node) DiskBytesRead() float64 {
	t := n.dfsDev.BytesRead()
	if n.scratchDev != n.dfsDev {
		t += n.scratchDev.BytesRead()
	}
	return t
}

// DiskBytesWritten returns cumulative bytes written across the node's devices.
func (n *Node) DiskBytesWritten() float64 {
	t := n.dfsDev.BytesWritten()
	if n.scratchDev != n.dfsDev {
		t += n.scratchDev.BytesWritten()
	}
	return t
}

// Aggregates across compute nodes, for the cluster-level plots.

// CPUBusyIntegral sums compute-node core-seconds of use.
func (c *Cluster) CPUBusyIntegral() float64 {
	t := 0.0
	for _, n := range c.ComputeNodes() {
		t += n.CPUBusyIntegral()
	}
	return t
}

// IowaitIntegral sums compute-node iowait core-seconds.
func (c *Cluster) IowaitIntegral() float64 {
	t := 0.0
	for _, n := range c.ComputeNodes() {
		t += n.IowaitIntegral()
	}
	return t
}

// TotalCores returns the number of compute cores across compute nodes.
func (c *Cluster) TotalCores() int {
	t := 0
	for _, n := range c.ComputeNodes() {
		t += n.Cores()
	}
	return t
}

// DiskBytesRead sums bytes read across every device on all nodes.
func (c *Cluster) DiskBytesRead() float64 {
	t := 0.0
	for _, n := range c.nodes {
		t += n.DiskBytesRead()
	}
	return t
}

// DiskBytesWritten sums bytes written across every device on all nodes.
func (c *Cluster) DiskBytesWritten() float64 {
	t := 0.0
	for _, n := range c.nodes {
		t += n.DiskBytesWritten()
	}
	return t
}

// CPUAccount merges all nodes' per-phase CPU accounts.
func (c *Cluster) CPUAccount() *metrics.CPUAccount {
	total := metrics.NewCPUAccount()
	for _, n := range c.nodes {
		total.Merge(n.cpuByPhase)
	}
	return total
}
