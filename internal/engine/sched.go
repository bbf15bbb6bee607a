package engine

import (
	"fmt"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/metrics"
	"onepass/internal/sim"
)

// DefaultMapSlots is Hadoop's classic 2 concurrent map tasks per node.
const DefaultMapSlots = 2

func (j *Job) mapSlots() int {
	if j.MapSlotsPerNode > 0 {
		return j.MapSlotsPerNode
	}
	return DefaultMapSlots
}

func (j *Job) reduceSlots(computeNodes int) int {
	if j.ReduceSlotsPerNode > 0 {
		return j.ReduceSlotsPerNode
	}
	// Default: enough slots that all reducers of the job run concurrently,
	// as in the paper's configuration (e.g. 60 reducers on 10 nodes).
	s := (j.Reducers + computeNodes - 1) / computeNodes
	if s < 1 {
		s = 1
	}
	return s
}

// TaskMemory returns the per-task buffer budget.
func (rt *Runtime) TaskMemory(j *Job) int64 {
	if j.MemoryPerTask > 0 {
		return j.MemoryPerTask
	}
	return cluster.NodeMemory / 4
}

// RunMaps schedules one map task per input block across compute-node map
// slots with data-local placement preference (block-level scheduling,
// §II.A). It returns a WaitGroup that drains when every block is mapped.
// Each task is wrapped in a SpanMap timeline span.
func (rt *Runtime) RunMaps(job *Job, blocks []*dfs.Block, task func(p *sim.Proc, node *cluster.Node, b *dfs.Block)) *WaitGroup {
	wg := rt.NewWaitGroup("maps:"+job.Name, len(blocks))
	pending := append([]*dfs.Block(nil), blocks...)
	// take returns the next runnable block for nodeID (local preferred), or
	// nil with how long to wait for the next streamed block to arrive
	// (§I's one-pass setting: tasks start as data arrives, not after a
	// loading phase). wait <= 0 with a nil block means the queue drained.
	take := func(nodeID int) (*dfs.Block, sim.Duration) {
		if len(pending) == 0 {
			return nil, 0
		}
		now := rt.Env.Now()
		pick := -1
		var soonest sim.Time = -1
		for i, b := range pending {
			if b.AvailableAt <= now {
				if b.IsLocal(nodeID) {
					pick = i
					break
				}
				if pick < 0 {
					pick = i
				}
			} else if soonest < 0 || b.AvailableAt < soonest {
				soonest = b.AvailableAt
			}
		}
		if pick < 0 {
			return nil, soonest.Sub(now)
		}
		b := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		rt.MapBuffers.Expect(-1)
		return b, 0
	}
	rt.MapBuffers.Expect(len(pending))
	for _, node := range rt.Cluster.ComputeNodes() {
		node := node
		for s := 0; s < job.mapSlots(); s++ {
			rt.Env.Go(fmt.Sprintf("map-slot-n%d-%d", node.ID, s), func(p *sim.Proc) {
				run := func(b *dfs.Block) {
					defer rt.nameFailure(p, job, "map", b.Index, 0)
					if rt.Auditing() {
						rt.Audit.TaskLaunched("map")
					}
					span := rt.Begin(metrics.Span{Name: SpanMap, Node: node.ID, Task: b.Index})
					task(p, node, b)
					rt.End(span)
					rt.Counters.Add(CtrMapTasks, 1)
					if rt.Auditing() {
						rt.Audit.TaskCompleted("map")
					}
					wg.Done()
					if job.Progress != nil {
						job.Progress("map", len(blocks)-wg.Pending(), len(blocks))
					}
				}
				for !node.Failed() {
					b, wait := take(node.ID)
					switch {
					case b != nil:
						run(b)
					case wait > 0:
						p.Sleep(wait)
					default:
						return
					}
				}
			})
		}
	}
	return wg
}

// RunReduces starts job.Reducers reduce tasks round-robin across compute
// nodes, each holding a reduce slot for its lifetime and wrapped in a
// SpanReduce task span. Phase spans inside a reduce task
// (shuffle/merge/reduce) are the engine's responsibility.
func (rt *Runtime) RunReduces(job *Job, task func(p *sim.Proc, node *cluster.Node, r int)) *WaitGroup {
	nodes := rt.Cluster.ComputeNodes()
	wg := rt.NewWaitGroup("reduces:"+job.Name, job.Reducers)
	slots := make(map[int]*sim.Resource, len(nodes))
	for _, n := range nodes {
		slots[n.ID] = rt.Env.NewResource(fmt.Sprintf("reduce-slots-n%d-%s", n.ID, job.Name), job.reduceSlots(len(nodes)))
	}
	for r := 0; r < job.Reducers; r++ {
		r := r
		node := nodes[r%len(nodes)]
		rt.Env.Go(fmt.Sprintf("reduce-%d-n%d", r, node.ID), func(p *sim.Proc) {
			defer rt.nameFailure(p, job, "reduce", r, 0)
			slot := slots[node.ID]
			slot.Acquire(p, 1)
			if rt.Auditing() {
				rt.Audit.TaskLaunched("reduce")
			}
			span := rt.Begin(metrics.Span{Name: SpanReduce, Node: node.ID, Task: r})
			task(p, node, r)
			rt.End(span)
			slot.Release(1)
			rt.Counters.Add(CtrReduceTasks, 1)
			if rt.Auditing() {
				rt.Audit.TaskCompleted("reduce")
			}
			wg.Done()
			if job.Progress != nil {
				job.Progress("reduce", job.Reducers-wg.Pending(), job.Reducers)
			}
		})
	}
	return wg
}

// ReducerNode returns the node reducer r runs on under RunReduces placement.
func (rt *Runtime) ReducerNode(r int) *cluster.Node {
	nodes := rt.Cluster.ComputeNodes()
	return nodes[r%len(nodes)]
}
