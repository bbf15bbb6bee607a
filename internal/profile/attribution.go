package profile

import (
	"fmt"
	"math"

	"onepass/internal/engine"
	"onepass/internal/metrics"
	"onepass/internal/sim"
)

// Cause is one attribution bucket the makespan decomposes into.
type Cause string

// The attribution taxonomy, in reporting order. Every virtual nanosecond of
// the run is assigned to exactly one cause, so the shares sum to the
// makespan exactly (integer arithmetic, asserted by Compute).
const (
	// CauseCPU is compute: the cluster-average fraction of cores busy.
	CauseCPU Cause = "cpu"
	// CauseIowait is cores idle while their own node's disk had requests
	// pending — the CPU/I-O overlap the paper's §III.A measures.
	CauseIowait Cause = "iowait"
	// CauseDisk is residual time in intervals where disk traffic moved but
	// cores were neither busy nor in iowait: queueing behind other tasks'
	// disk work.
	CauseDisk Cause = "disk-queue"
	// CauseNet is residual time in intervals with network transfer in
	// flight: shuffle data movement not overlapped with compute.
	CauseNet Cause = "network"
	// CauseBarrier is residual time while some reducer sat inside an open
	// shuffle phase with no resource moving: waiting on the map barrier.
	CauseBarrier Cause = "barrier-wait"
	// CauseIdle is everything else: scheduler gaps, startup, teardown.
	CauseIdle Cause = "scheduler-idle"
)

// Causes returns the attribution taxonomy in canonical reporting order.
func Causes() []Cause {
	return []Cause{CauseCPU, CauseIowait, CauseDisk, CauseNet, CauseBarrier, CauseIdle}
}

// Share is one cause's slice of the makespan.
type Share struct {
	Cause Cause        `json:"cause"`
	Time  sim.Duration `json:"time"`
	// Share is Time / makespan in [0,1].
	Share float64 `json:"share"`
}

// NodeUtil is one node's exact busy/iowait/idle split of the makespan
// (Busy + Iowait + Idle == makespan, same integer tiling as the cluster
// attribution).
type NodeUtil struct {
	Node   int          `json:"node"`
	Busy   sim.Duration `json:"busy"`
	Iowait sim.Duration `json:"iowait"`
	Idle   sim.Duration `json:"idle"`
}

// scaled converts one sampled fraction bucket to nanoseconds within that
// bucket: the sampled series normalize by 1/(cores·interval), so
// value·interval is the per-core-average busy time regardless of whether the
// bucket is the final partial one. Rounded to the nearest nanosecond and
// capped at the bucket width so float noise cannot over-tile.
func scaled(v float64, bucket, cap sim.Duration) sim.Duration {
	d := sim.Duration(math.Round(v * float64(bucket)))
	if d < 0 {
		d = 0
	}
	if d > cap {
		d = cap
	}
	return d
}

// attribute tiles [0, makespan) with the sampled series: per interval, CPU
// first, then iowait, then the residual classified by the dominant signal
// active in that interval (network > disk > barrier > idle). Integer
// nanoseconds throughout, so the six causes sum exactly to the makespan.
func attribute(res *engine.Result, spans []metrics.Span, makespan sim.Duration) ([]Share, error) {
	if res.CPUUtil == nil || res.Iowait == nil || res.BytesRead == nil ||
		res.BytesWritten == nil || res.NetBytes == nil {
		return nil, fmt.Errorf("profile: result is missing sampled series (run without a sampler?)")
	}
	w := res.CPUUtil.Bucket
	if w <= 0 {
		return nil, fmt.Errorf("profile: CPU series has non-positive bucket %d", w)
	}
	nb := int((makespan + w - 1) / w)

	// Which intervals had a shuffle phase open on some reducer: the barrier
	// signal for residual classification.
	barrier := make([]bool, nb)
	for _, sp := range spans {
		if !sp.Phase || sp.Name != engine.SpanShuffle {
			continue
		}
		lo, hi := int(int64(sp.Start)/int64(w)), int(int64(sp.Finish-1)/int64(w))
		for i := lo; i <= hi && i < nb; i++ {
			if i >= 0 {
				barrier[i] = true
			}
		}
	}

	total := make(map[Cause]sim.Duration)
	for i := 0; i < nb; i++ {
		width := w
		if last := makespan - sim.Duration(i)*w; last < width {
			width = last
		}
		cpu := scaled(res.CPUUtil.At(i), w, width)
		iow := scaled(res.Iowait.At(i), w, width-cpu)
		residual := width - cpu - iow
		total[CauseCPU] += cpu
		total[CauseIowait] += iow
		if residual == 0 {
			continue
		}
		switch {
		case res.NetBytes.At(i) > 0:
			total[CauseNet] += residual
		case res.BytesRead.At(i) > 0 || res.BytesWritten.At(i) > 0:
			total[CauseDisk] += residual
		case barrier[i]:
			total[CauseBarrier] += residual
		default:
			total[CauseIdle] += residual
		}
	}

	shares := make([]Share, 0, len(Causes()))
	var sum sim.Duration
	for _, c := range Causes() {
		t := total[c]
		sum += t
		shares = append(shares, Share{Cause: c, Time: t, Share: float64(t) / float64(makespan)})
	}
	if sum != makespan {
		return nil, fmt.Errorf("profile: attribution sums to %s, makespan is %s", sum, makespan)
	}
	return shares, nil
}

// nodeUtilization splits each node's makespan into busy/iowait/idle with the
// same integer tiling as the cluster attribution.
func nodeUtilization(perNode []engine.NodeSeries, makespan sim.Duration) ([]NodeUtil, error) {
	out := make([]NodeUtil, 0, len(perNode))
	for _, ns := range perNode {
		if ns.CPUUtil == nil || ns.Iowait == nil {
			return nil, fmt.Errorf("profile: node %d is missing per-node series", ns.Node)
		}
		w := ns.CPUUtil.Bucket
		if w <= 0 {
			return nil, fmt.Errorf("profile: node %d series has non-positive bucket", ns.Node)
		}
		nb := int((makespan + w - 1) / w)
		u := NodeUtil{Node: ns.Node}
		for i := 0; i < nb; i++ {
			width := w
			if last := makespan - sim.Duration(i)*w; last < width {
				width = last
			}
			busy := scaled(ns.CPUUtil.At(i), w, width)
			iow := scaled(ns.Iowait.At(i), w, width-busy)
			u.Busy += busy
			u.Iowait += iow
			u.Idle += width - busy - iow
		}
		if u.Busy+u.Iowait+u.Idle != makespan {
			return nil, fmt.Errorf("profile: node %d utilization sums to %s, makespan is %s",
				ns.Node, u.Busy+u.Iowait+u.Idle, makespan)
		}
		out = append(out, u)
	}
	return out, nil
}
