// Package netsim models the cluster interconnect: per-node full-duplex NICs
// with finite bandwidth. Shuffle transfers chunk through the sender's egress
// and the receiver's ingress simultaneously, so many mappers pushing to one
// reducer queue on that reducer's ingress — the network effect behind
// MapReduce Online's finer-granularity transmission cost (§III.D).
package netsim

import (
	"fmt"

	"onepass/internal/sim"
)

// Network is the cluster interconnect.
type Network struct {
	env     *sim.Env
	bw      float64 // bytes/second per NIC direction
	latency sim.Duration
	chunk   int64
	nics    []nic

	bytesTransferred float64
}

type nic struct {
	egress  *sim.Resource
	ingress *sim.Resource
	// slow scales transfer times through this NIC (>= 1; 0 means 1). Set by
	// the fault injector to model a degraded link.
	slow float64
}

// New creates a network connecting n nodes, each with the given per-direction
// NIC bandwidth (bytes/second) and per-transfer latency.
func New(env *sim.Env, n int, bw float64, latency sim.Duration) *Network {
	if n <= 0 {
		panic("netsim: need at least one node")
	}
	if bw <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	net := &Network{env: env, bw: bw, latency: latency, chunk: 1 << 20}
	for i := 0; i < n; i++ {
		net.nics = append(net.nics, nic{
			egress:  env.NewResource(fmt.Sprintf("nic%d-eg", i), 1),
			ingress: env.NewResource(fmt.Sprintf("nic%d-in", i), 1),
		})
	}
	return net
}

// GigabitEthernet is the paper cluster's 1 GbE link rate in bytes/second.
const GigabitEthernet = 125e6

// BytesTransferred returns cumulative bytes moved across the network
// (loopback excluded).
func (n *Network) BytesTransferred() float64 { return n.bytesTransferred }

// SetDegraded scales transfer times through node's NIC by factor — the
// link-degradation fault. Factors below 1 reset the NIC to full speed.
// Transfers already in their current chunk are unaffected; the next chunk
// sees the new rate.
func (n *Network) SetDegraded(node int, factor float64) {
	if factor < 1 {
		factor = 1
	}
	n.nics[node].slow = factor
}

// Transfer moves bytes from node `from` to node `to`, blocking p for the
// transfer duration. A transfer between a node and itself is free (loopback
// never left the machine in the paper's measurements either).
func (n *Network) Transfer(p *sim.Proc, from, to int, bytes int64) {
	if from == to || bytes <= 0 {
		return
	}
	p.Sleep(n.latency)
	src, dst := &n.nics[from], &n.nics[to]
	// Acquire the two resources in a global (nodeID, direction) order so
	// that concurrent opposing transfers cannot deadlock.
	first, second := src.egress, dst.ingress
	if to < from {
		first, second = dst.ingress, src.egress
	}
	for remaining := bytes; remaining > 0; remaining -= n.chunk {
		c := n.chunk
		if remaining < c {
			c = remaining
		}
		d := sim.Seconds(float64(c) / n.bw)
		// A degraded link slows the whole path; the worse endpoint dominates.
		if s := src.slow; s > 1 && s > dst.slow {
			d = sim.Duration(float64(d) * s)
		} else if s := dst.slow; s > 1 {
			d = sim.Duration(float64(d) * s)
		}
		first.Acquire(p, 1)
		second.Acquire(p, 1)
		p.Sleep(d)
		first.Release(1)
		second.Release(1)
	}
	n.bytesTransferred += float64(bytes)
}
