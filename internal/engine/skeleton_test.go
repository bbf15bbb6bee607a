package engine

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/kv"
	"onepass/internal/sim"
)

// lineJob is a minimal valid job over the input registered at path.
func lineJob(path string) Job {
	return Job{
		Name: "t", InputPath: path, OutputPath: "out/t", Reducers: 2,
		Reader: func(block []byte, yield func([]byte)) {
			for _, line := range bytes.Split(bytes.TrimSpace(block), []byte("\n")) {
				yield(line)
			}
		},
		Map:    func(rec []byte, emit Emit) { emit(rec, []byte("1")) },
		Reduce: func(key []byte, vals [][]byte, emit Emit) { emit(key, vals[0]) },
	}
}

func registerLines(t *testing.T, rt *Runtime, path string, size int64) {
	t.Helper()
	if err := rt.DFS.RegisterGenerated(path, size, func(int, int64) []byte { return []byte("a\nb\n") }); err != nil {
		t.Fatal(err)
	}
}

// A launch that cannot succeed must fail before the skeleton spawns
// anything: a job stranded half-started would hold its service slots forever.
func TestStartFailsBeforeSpawning(t *testing.T) {
	noReduce := lineJob("in")
	noReduce.Reduce = nil
	for _, tc := range []struct {
		name      string
		job       Job
		setupErr  error
		want      string
		wantSetup int
	}{
		{"empty input", lineJob("empty"), nil, `fake: input "empty" has no blocks`, 0},
		{"missing reduce", noReduce, nil, `job "t" needs a reduce function`, 0},
		{"missing input", lineJob("nowhere"), nil, "nowhere", 0},
		{"setup refuses", lineJob("in"), errors.New("fake: refused"), "fake: refused", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRuntime(2)
			registerLines(t, rt, "in", 4)
			registerLines(t, rt, "empty", 0)
			setups := 0
			plan := &Plan{Label: "fake", Setup: func(*JobRun) (Tasks, error) {
				setups++
				return Tasks{}, tc.setupErr
			}}
			res, err := Run(rt, tc.job, Options{}, plan)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if res != nil {
				t.Errorf("a failed launch returned a result: %+v", res)
			}
			if setups != tc.wantSetup {
				t.Errorf("Setup ran %d times, want %d", setups, tc.wantSetup)
			}
			if n := rt.Env.LiveCount(); n != 0 {
				t.Errorf("%d processes spawned by a launch that failed", n)
			}
		})
	}
}

// The controller's sequence is maps → recoveries still in flight → push
// channels closed → reduces → JobDone → done, and done fires exactly once;
// the plan's label and defaults reach the run. Block 0's map finishes on a
// node that has just died, so its recovery re-pushes into a channel the
// controller must keep open past the map barrier.
func TestSkeletonSequenceLabelAndDefaults(t *testing.T) {
	rt := testRuntime(2)
	registerLines(t, rt, "in", 3*64<<10)
	var events []string
	var seen *JobRun
	received := 0
	plan := &Plan{
		Label:                "fake",
		Push:                 true,
		Defaults:             Options{FanIn: 7, ChunkBytes: 1 << 10, BackpressureBytes: 2 << 10, SpillBuckets: 3, HotKeyCounters: 5},
		FrameworkNsPerRecord: 123,
		Setup: func(j *JobRun) (Tasks, error) {
			seen = j
			return Tasks{
				Map: func(p *sim.Proc, node *cluster.Node, b *dfs.Block) {
					p.Sleep(sim.Duration(b.Index+1) * sim.Millisecond)
					events = append(events, "map")
					out := &MapOutput{TaskID: b.Index, Node: node.ID, Held: []int{HeldAll, HeldAll}}
					if b.Index == 0 {
						node.Fail()
						out.Held[0] = 0
					}
					j.Reg.Complete(out)
				},
				// A reduce task ends when the controller closes its stream.
				Reduce: func(p *sim.Proc, _ *cluster.Node, r int) {
					for {
						if _, ok := j.Channels[r].Pop(p); !ok {
							break
						}
						received++
					}
					p.Sleep(sim.Millisecond)
					events = append(events, "reduce")
				},
				Rebuild: func(p *sim.Proc, _ *cluster.Node, b *dfs.Block) ([]kv.Chunk, func(int)) {
					p.Sleep(10 * sim.Millisecond) // well past the map barrier
					events = append(events, "recover")
					return []kv.Chunk{{Part: 0, Seq: 0, Data: []byte("a")}}, func(int) {}
				},
			}, nil
		},
	}
	dones := 0
	var res *Result
	err := Start(rt, lineJob("in"), Options{ChunkBytes: 9 << 10}, plan, func(p *sim.Proc, r *Result) {
		dones++
		res = r
		if !rt.finished {
			t.Error("done fired before JobDone")
		}
		events = append(events, "done")
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Env.Run()
	want := []string{"map", "map", "map", "recover", "reduce", "reduce", "done"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("sequence = %v, want %v", events, want)
	}
	if received != 1 || rt.Counters.Get(CtrTasksReexecuted) != 1 {
		t.Fatalf("reducers received %d chunks after %v recoveries, want the one re-pushed chunk", received, rt.Counters.Get(CtrTasksReexecuted))
	}
	if dones != 1 {
		t.Fatalf("done fired %d times", dones)
	}
	if res.Engine != "fake" || rt.EngineLabel != "fake" || res.Job != "t" {
		t.Errorf("label: result %q/%q, runtime %q", res.Engine, res.Job, rt.EngineLabel)
	}
	wantOpts := Options{FanIn: 7, ChunkBytes: 9 << 10, BackpressureBytes: 2 << 10, SpillBuckets: 3, HotKeyCounters: 5}
	if !reflect.DeepEqual(seen.Opts, wantOpts) {
		t.Errorf("opts = %+v, want the plan's defaults under the caller's ChunkBytes: %+v", seen.Opts, wantOpts)
	}
	if seen.Costs.FrameworkNsPerRecord != 123 || seen.Costs.CompareNs != DefaultCosts().CompareNs {
		t.Errorf("costs = %+v, want the plan's framework overhead over DefaultCosts", seen.Costs)
	}
}

// recoveringJob is a job of R reducers whose registry recovers lost outputs
// through JobRun.Recover with rebuild, over blocks 0..n-1.
func recoveringJob(rt *Runtime, R, n int, rebuild func(p *sim.Proc, node *cluster.Node, b *dfs.Block) ([]kv.Chunk, func(int))) *JobRun {
	job := lineJob("in")
	job.Reducers = R
	j := &JobRun{RT: rt, Job: &job, Reg: rt.NewRegistry(n), Channels: rt.NewPushChannels(R, 1<<20),
		blocks: map[int]*dfs.Block{}, rebuild: rebuild}
	for b := 0; b < n; b++ {
		j.blocks[b] = &dfs.Block{Index: b}
	}
	j.Reg.job = j
	return j
}

// A node failure recovers, at once, each of the node's outputs whose
// readers lack some partition: an output whose every chunk was delivered
// is left alone, and a push-only one is regenerated and re-pushed from its
// frontier. When the recovery node itself dies mid-way, the next attempt
// resumes on another live node from the frontier the dead one advanced.
func TestRecoverSkipsHeldAndResumesFromFrontier(t *testing.T) {
	const R = 4
	rt := testRuntime(4)
	sealed := 4 // partition 3's chunks; the others' one chunk each is held
	type call struct {
		node, task int
		held       []int
	}
	var calls []call
	var j *JobRun
	j = recoveringJob(rt, R, 3, func(p *sim.Proc, node *cluster.Node, b *dfs.Block) ([]kv.Chunk, func(int)) {
		calls = append(calls, call{node.ID, b.Index, append([]int(nil), j.Reg.outs[b.Index].Held...)})
		var chunks []kv.Chunk
		for r := 0; r < 3; r++ {
			chunks = append(chunks, kv.Chunk{Part: r, Seq: 0, Data: []byte{byte(r)}})
		}
		for seq := 0; seq < sealed; seq++ {
			chunks = append(chunks, kv.Chunk{Part: 3, Seq: seq, Data: []byte{byte(seq)}})
		}
		first := len(calls) == 1
		return chunks, func(i int) {
			if first && i == 5 {
				node.Fail() // the first recovery node dies after one chunk
			}
		}
	})
	rt.Env.Go("controller", func(p *sim.Proc) {
		dead, alive := rt.Cluster.Node(1), rt.Cluster.Node(3)
		all := HeldAll
		j.Reg.Complete(&MapOutput{TaskID: 0, Node: dead.ID, Held: []int{all, all, all, all}}) // all delivered
		j.Reg.Complete(&MapOutput{TaskID: 1, Node: dead.ID, Held: []int{all, all, all, 1}})   // 3 chunks short
		j.Reg.Complete(&MapOutput{TaskID: 2, Node: alive.ID, Held: []int{all, all, all, 0}})  // short, but not lost
		dead.Fail()
		j.Reg.FailNode(dead.ID)
	})
	rt.Env.Run()

	// Task 1 goes to the live compute nodes [0 2 3] at 1 mod 3, then, with
	// node 2 dead, to [0 3] at 1 mod 2.
	all := HeldAll
	wantCalls := []call{{2, 1, []int{all, all, all, 1}}, {3, 1, []int{all, all, all, 2}}}
	if !reflect.DeepEqual(calls, wantCalls) {
		t.Fatalf("rebuild calls = %+v, want %+v", calls, wantCalls)
	}
	var got []PushChunk
	for _, c := range j.Channels[3].queue {
		got = append(got, PushChunk{MapTask: c.MapTask, Seq: c.Seq})
	}
	wantChunks := []PushChunk{{MapTask: 1, Seq: 1}, {MapTask: 1, Seq: 2}, {MapTask: 1, Seq: 3}}
	if !reflect.DeepEqual(got, wantChunks) {
		t.Fatalf("re-pushed chunks = %+v, want %+v", got, wantChunks)
	}
	for i := 0; i < 2; i++ {
		if out := j.Reg.outs[i]; out.Lost {
			t.Errorf("task %d still lost after recovery", out.TaskID)
		}
	}
	rec := j.Reg.outs[1]
	if rec.Node != 3 || !reflect.DeepEqual(rec.Held, []int{all, all, all, all}) {
		t.Errorf("recovered output: node %d held %v", rec.Node, rec.Held)
	}
	if n := rt.Counters.Get(CtrTasksReexecuted); n != 1 {
		t.Errorf("%s = %v, want 1: the fully-delivered output needs no re-execution", CtrTasksReexecuted, n)
	}
	if n := rt.Counters.Get(CtrPushChunksLost); n != 1 {
		t.Errorf("%s = %v, want the one chunk the dying recovery node could not send", CtrPushChunksLost, n)
	}
}
