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

// The controller's sequence is maps → AfterMaps → reduces → JobDone → done,
// and done fires exactly once; the plan's label and defaults reach the run.
func TestSkeletonSequenceLabelAndDefaults(t *testing.T) {
	rt := testRuntime(2)
	registerLines(t, rt, "in", 3*64<<10)
	var events []string
	var seen *JobRun
	plan := &Plan{
		Label:                "fake",
		Defaults:             Options{FanIn: 7, ChunkBytes: 1 << 10, BackpressureBytes: 2 << 10, SpillBuckets: 3, HotKeyCounters: 5},
		FrameworkNsPerRecord: 123,
		Setup: func(j *JobRun) (Tasks, error) {
			seen = j
			release := j.RT.Env.NewTrigger("after-maps")
			released := false
			return Tasks{
				Map: func(p *sim.Proc, _ *cluster.Node, b *dfs.Block) {
					p.Sleep(sim.Duration(b.Index+1) * sim.Millisecond)
					events = append(events, "map")
				},
				// Like a push engine's reducer, a reduce task cannot end
				// before AfterMaps has closed its stream.
				Reduce: func(p *sim.Proc, _ *cluster.Node, _ int) {
					for !released {
						release.Wait(p)
					}
					p.Sleep(sim.Millisecond)
					events = append(events, "reduce")
				},
				AfterMaps: func(p *sim.Proc) {
					p.Sleep(sim.Millisecond)
					events = append(events, "after-maps")
					released = true
					release.Broadcast()
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
	want := []string{"map", "map", "map", "after-maps", "reduce", "reduce", "done"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("sequence = %v, want %v", events, want)
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

// RepushLost leaves a lost output alone when everything it sealed had been
// delivered, regenerates the others from their delivery frontier, and — when
// the recovery node itself dies mid-way — resumes on the next survivor from
// the frontier the dead one advanced.
func TestRepushLostSkipsDeliveredAndResumesFromFrontier(t *testing.T) {
	const R = 4
	rt := testRuntime(4)
	job := lineJob("in")
	job.Reducers = R
	j := &JobRun{RT: rt, Job: &job, Reg: rt.NewRegistry(3), Channels: rt.NewPushChannels(R, 1<<20),
		blocks: map[int]*dfs.Block{0: {Index: 0}, 1: {Index: 1}, 2: {Index: 2}}}
	sealed := []int{1, 1, 1, 4}

	type call struct {
		node, task int
		already    []int
	}
	var calls []call
	regen := func(_ *JobRun, p *sim.Proc, node *cluster.Node, b *dfs.Block, already []int) ([]kv.Chunk, func(int)) {
		calls = append(calls, call{node.ID, b.Index, append([]int(nil), already...)})
		var chunks []kv.Chunk
		for seq := already[3]; seq < sealed[3]; seq++ {
			chunks = append(chunks, kv.Chunk{Part: 3, Seq: seq, Data: []byte{byte(seq)}})
		}
		charge := func(i int) {
			if len(calls) == 1 && i == 1 {
				node.Fail() // the first recovery node dies after one chunk
			}
		}
		return chunks, charge
	}
	rt.Env.Go("controller", func(p *sim.Proc) {
		dead, alive := rt.Cluster.Node(1), rt.Cluster.Node(3)
		j.CompletePushed(dead, 0, []int{1, 1, 1, 4}, sealed)  // all delivered
		j.CompletePushed(dead, 1, []int{1, 1, 1, 1}, sealed)  // 3 chunks short
		j.CompletePushed(alive, 2, []int{1, 1, 1, 0}, sealed) // short, but not lost
		dead.Fail()
		j.Reg.FailNode(dead.ID)
		j.RepushLost(p, regen)
	})
	rt.Env.Run()

	wantCalls := []call{{0, 1, []int{1, 1, 1, 1}}, {2, 1, []int{1, 1, 1, 2}}}
	if !reflect.DeepEqual(calls, wantCalls) {
		t.Fatalf("regen calls = %+v, want %+v", calls, wantCalls)
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
		if out := j.Reg.Out(i); out.Lost {
			t.Errorf("task %d still lost after recovery", out.TaskID)
		}
	}
	rec := j.Reg.Out(1)
	if rec.Node != 2 || !reflect.DeepEqual(rec.Delivered, sealed) || !reflect.DeepEqual(rec.Pushed, []bool{true, true, true, true}) {
		t.Errorf("recovered output: node %d delivered %v pushed %v", rec.Node, rec.Delivered, rec.Pushed)
	}
	if n := rt.Counters.Get(CtrTasksReexecuted); n != 1 {
		t.Errorf("%s = %v, want 1: the fully-delivered output needs no re-execution", CtrTasksReexecuted, n)
	}
	if n := rt.Counters.Get(CtrPushChunksLost); n != 1 {
		t.Errorf("%s = %v, want the one chunk the dying recovery node could not send", CtrPushChunksLost, n)
	}
}
