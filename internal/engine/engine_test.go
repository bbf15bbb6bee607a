package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/kv"
	"onepass/internal/sim"
)

func testRuntime(nodes int) *Runtime {
	env := sim.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = 2
	c := cluster.New(env, cfg)
	return NewRuntime(env, c, dfs.New(c, 64<<10, 1))
}

func TestWaitGroup(t *testing.T) {
	rt := testRuntime(2)
	wg := rt.NewWaitGroup("x", 3)
	doneAt := sim.Time(-1)
	rt.Env.Go("waiter", func(p *sim.Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 0; i < 3; i++ {
		d := sim.Duration(i+1) * sim.Second
		rt.Env.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	rt.Env.Run()
	if doneAt != sim.Time(3*sim.Second) {
		t.Fatalf("waiter released at %v, want 3s", doneAt)
	}
	if wg.Pending() != 0 {
		t.Fatalf("pending = %d", wg.Pending())
	}
}

func TestWaitGroupOverDonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt := testRuntime(2)
	wg := rt.NewWaitGroup("x", 1)
	rt.Env.Go("a", func(p *sim.Proc) { wg.Done(); wg.Done() })
	rt.Env.Run()
}

func TestMapOutputSingleFileIndex(t *testing.T) {
	rt := testRuntime(2)
	rt.Env.Go("w", func(p *sim.Proc) {
		store := rt.Cluster.Node(0).ScratchStore()
		var data []byte
		partLen := make([]int64, 3)
		for r := range partLen {
			partLen[r] = int64(r+1) * 10
			data = append(data, bytes.Repeat([]byte{byte('a' + r)}, (r+1)*10)...)
		}
		out := NewMapOutput(p, store, "job/map-0/file.out", 0, 0, data, partLen)
		if out.Parts() != 3 {
			t.Errorf("parts = %d", out.Parts())
		}
		if out.PartSize(1) != 20 {
			t.Errorf("part 1 size = %d", out.PartSize(1))
		}
		if got := out.PartData(2); len(got) != 30 || got[0] != 'c' {
			t.Errorf("part 2 data = %q", got)
		}
		if out.File.Size() != 60 {
			t.Errorf("file size = %d", out.File.Size())
		}
		// Consuming all partitions deletes the file.
		for r := 0; r < 3; r++ {
			out.ConsumePart(r)
		}
		if store.Exists("job/map-0/file.out") {
			t.Error("file not deleted after full consumption")
		}
	})
	rt.Env.Run()
}

func TestRegistryPullFlow(t *testing.T) {
	rt := testRuntime(3)
	reg := rt.NewRegistry(2)
	var fetched [][]byte
	rt.Env.Go("reducer", func(p *sim.Proc) {
		reg.Pull(p, 2, 0, func(data []byte) { fetched = append(fetched, append([]byte(nil), data...)) })
	})
	for i := 0; i < 2; i++ {
		i := i
		rt.Env.Go(fmt.Sprintf("mapper%d", i), func(p *sim.Proc) {
			p.Sleep(sim.Duration(i+1) * sim.Second)
			store := rt.Cluster.Node(i).ScratchStore()
			out := NewMapOutput(p, store, fmt.Sprintf("m%d", i), i, i, []byte{byte('0' + i)}, []int64{1})
			reg.Complete(out)
		})
	}
	rt.Env.Run()
	if len(fetched) != 2 || fetched[0][0] != '0' || fetched[1][0] != '1' {
		t.Fatalf("fetched = %q", fetched)
	}
	// Remote fetches moved bytes over the network.
	if rt.Cluster.Net.BytesTransferred() == 0 {
		t.Fatal("no network transfer for remote fetch")
	}
}

func TestRegistryFreshWindowSkipsSourceDisk(t *testing.T) {
	fetchAfter := func(delay sim.Duration) float64 {
		rt := testRuntime(2)
		reg := rt.NewRegistry(1)
		rt.Env.Go("mapper", func(p *sim.Proc) {
			store := rt.Cluster.Node(0).ScratchStore()
			out := NewMapOutput(p, store, "m0", 0, 0, make([]byte, 100<<10), []int64{100 << 10})
			reg.Complete(out)
		})
		rt.Env.Go("reducer", func(p *sim.Proc) {
			reg.WaitBeyond(p, 0)
			p.Sleep(delay)
			reg.FetchPart(p, 1, reg.Out(0), 0)
		})
		readBefore := 0.0
		_ = readBefore
		rt.Env.Run()
		return rt.Cluster.Node(0).ScratchDevice().BytesRead()
	}
	if fresh := fetchAfter(sim.Second); fresh != 0 {
		t.Fatalf("fresh fetch read %v bytes from source disk", fresh)
	}
	if stale := fetchAfter(60 * sim.Second); stale == 0 {
		t.Fatal("stale fetch must re-read the source disk")
	}
}

func TestFetchPartRetriesWhenSourceDiesMidTransfer(t *testing.T) {
	rt := testRuntime(3)
	reg := rt.NewRegistry(1)
	payload := bytes.Repeat([]byte{'x'}, 4<<20) // ~30ms transfer: room to die mid-flight
	reg.Reexec = func(p *sim.Proc, readerNode int, lost *MapOutput) *MapOutput {
		node := rt.Cluster.Node(2)
		return NewMapOutput(p, node.ScratchStore(), "m0/reexec", lost.TaskID, node.ID,
			payload, []int64{int64(len(payload))})
	}
	var fetched []byte
	rt.Env.Go("mapper", func(p *sim.Proc) {
		store := rt.Cluster.Node(0).ScratchStore()
		out := NewMapOutput(p, store, "m0", 0, 0, payload, []int64{int64(len(payload))})
		reg.Complete(out)
	})
	rt.Env.Go("reducer", func(p *sim.Proc) {
		reg.WaitBeyond(p, 0)
		out := reg.Out(0)
		fetched = append([]byte(nil), reg.FetchPart(p, 1, out, 0)...)
		out.ConsumePart(0)
	})
	rt.Env.Go("killer", func(p *sim.Proc) {
		reg.WaitBeyond(p, 0)     // completion broadcast: the fetch is starting
		p.Sleep(sim.Millisecond) // well inside the transfer
		rt.Cluster.Node(0).Fail()
		reg.FailNode(0)
	})
	rt.Env.Run()
	if got := rt.Counters.Get(CtrShuffleRetries); got == 0 {
		t.Fatal("mid-transfer death did not count a shuffle retry")
	}
	if got := rt.Counters.Get(CtrTasksReexecuted); got != 1 {
		t.Fatalf("tasks.reexecuted = %v, want 1", got)
	}
	if !bytes.Equal(fetched, payload) {
		t.Fatalf("fetched %d bytes, want the full %d-byte payload from the recovered attempt",
			len(fetched), len(payload))
	}
}

// Registry.Pull skips a push-delivered partition, still hands over, consumes
// and audits an empty one, and serves a lost output from its one
// re-executed attempt.
func TestRegistryPullSkipsPushedServesEmptyAndRecovers(t *testing.T) {
	rt := testRuntime(4)
	rt.Audit = NewAudit()
	reg := rt.NewRegistry(3)
	reexecs := 0
	reg.Reexec = func(p *sim.Proc, readerNode int, lost *MapOutput) *MapOutput {
		reexecs++
		return NewMapOutput(p, rt.Cluster.Node(2).ScratchStore(), "m2/reexec", lost.TaskID, 2, []byte("new"), []int64{3})
	}
	rt.Env.Go("mappers", func(p *sim.Proc) {
		pushed := NewMapOutput(p, rt.Cluster.Node(0).ScratchStore(), "m0", 0, 0, []byte("pushed"), []int64{6})
		pushed.Pushed[0] = true
		empty := NewMapOutput(p, rt.Cluster.Node(0).ScratchStore(), "m1", 1, 0, nil, []int64{0})
		lost := NewMapOutput(p, rt.Cluster.Node(1).ScratchStore(), "m2", 2, 1, []byte("old"), []int64{3})
		for _, out := range []*MapOutput{pushed, empty, lost} {
			reg.Complete(out)
		}
		rt.Cluster.Node(1).Fail()
		reg.FailNode(1)
	})
	var got []string
	rt.Env.Go("reducer", func(p *sim.Proc) {
		reg.Pull(p, 3, 0, func(data []byte) { got = append(got, string(data)) })
	})
	rt.Env.Run()

	if want := []string{"", "new"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ingested %q, want %q: the pushed partition skipped, the empty one handed over, the lost one recovered", got, want)
	}
	if reexecs != 1 || rt.Counters.Get(CtrTasksReexecuted) != 1 {
		t.Errorf("re-executions = %d (counter %v), want 1", reexecs, rt.Counters.Get(CtrTasksReexecuted))
	}
	if !rt.Cluster.Node(0).ScratchStore().Exists("m0") {
		t.Error("the pushed partition was consumed: Pull must skip it entirely")
	}
	for node, name := range map[int]string{0: "m1", 2: "m2/reexec"} {
		if rt.Cluster.Node(node).ScratchStore().Exists(name) {
			t.Errorf("%s not consumed after its pull", name)
		}
	}
	wantIngested := map[auditChunkKey]int64{{task: 1, part: 0, seq: -1}: 0, {task: 2, part: 0, seq: -1}: 3}
	if !reflect.DeepEqual(rt.Audit.ingested, wantIngested) {
		t.Errorf("audit ingest ledger = %v, want %v", rt.Audit.ingested, wantIngested)
	}
}

func TestPushChannelBackpressureAndOrder(t *testing.T) {
	rt := testRuntime(2)
	chans := rt.NewPushChannels(1, 100)
	pc := chans[0]
	var got []string
	rt.Env.Go("producer", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			data := bytes.Repeat([]byte{byte('a' + i)}, 60)
			for !pc.TryPush(p, 0, 1, i, 0, data) {
				pc.WaitSpace(p)
			}
		}
		pc.Close()
	})
	rt.Env.Go("consumer", func(p *sim.Proc) {
		for {
			c, ok := pc.Pop(p)
			if !ok {
				return
			}
			got = append(got, string(c.Data[:1]))
			p.Sleep(sim.Second) // slow consumer forces backpressure
		}
	})
	rt.Env.Run()
	if len(got) != 5 {
		t.Fatalf("got %d chunks", len(got))
	}
	for i, s := range got {
		if s != string(rune('a'+i)) {
			t.Fatalf("order broken: %v", got)
		}
	}
	if pc.QueuedBytes() != 0 {
		t.Fatalf("queued = %d", pc.QueuedBytes())
	}
}

func TestRunMapsPrefersLocalBlocks(t *testing.T) {
	rt := testRuntime(4)
	if err := rt.DFS.RegisterGenerated("in", 8*64<<10, func(b int, s int64) []byte {
		return make([]byte, s)
	}); err != nil {
		t.Fatal(err)
	}
	blocks, _ := rt.DFS.Blocks("in")
	job := &Job{Name: "t", Reducers: 1}
	local, total := 0, 0
	wg := rt.RunMaps(job, blocks, func(p *sim.Proc, node *cluster.Node, b *dfs.Block) {
		total++
		if b.IsLocal(node.ID) {
			local++
		}
		p.Sleep(sim.Second) // yield so every node's slots participate
	})
	rt.Env.Run()
	if wg.Pending() != 0 {
		t.Fatal("maps incomplete")
	}
	if total != 8 {
		t.Fatalf("ran %d tasks", total)
	}
	// Round-robin placement over 4 nodes, 8 blocks: all should be local.
	if local != 8 {
		t.Fatalf("only %d/8 tasks were data-local", local)
	}
}

func TestRunReducesPlacementAndSlots(t *testing.T) {
	rt := testRuntime(2)
	job := &Job{Name: "t", Reducers: 4}
	nodesSeen := map[int]int{}
	wg := rt.RunReduces(job, func(p *sim.Proc, node *cluster.Node, r int) {
		nodesSeen[node.ID]++
		p.Sleep(sim.Second)
	})
	rt.Env.Run()
	if wg.Pending() != 0 {
		t.Fatal("reduces incomplete")
	}
	if nodesSeen[0] != 2 || nodesSeen[1] != 2 {
		t.Fatalf("placement = %v, want 2 per node", nodesSeen)
	}
	// Default slots let all 4 run concurrently: total time ~1s.
	if got := rt.Env.Now().Seconds(); got > 1.5 {
		t.Fatalf("reduce waves serialized: %v", got)
	}
}

func TestExecuteMapCountsAndCharges(t *testing.T) {
	rt := testRuntime(2)
	content := []byte("aa 1\nbb 2\ncc 3\n")
	rt.DFS.RegisterGenerated("in", int64(len(content)), func(b int, s int64) []byte { return content })
	blocks, _ := rt.DFS.Blocks("in")
	job := &Job{
		Name: "t", InputPath: "in", Reducers: 2,
		Reader: func(block []byte, yield func([]byte)) {
			for _, line := range bytes.Split(bytes.TrimSpace(block), []byte("\n")) {
				yield(line)
			}
		},
		Map: func(rec []byte, emit Emit) { emit(rec[:2], rec[3:]) },
	}
	rt.Env.Go("m", func(p *sim.Proc) {
		node := rt.Cluster.Node(blocks[0].Replicas()[0])
		buf, err := rt.ExecuteMap(p, node, job, blocks[0], func(k []byte, n int) int { return int(k[0]) % n })
		if err != nil {
			t.Error(err)
			return
		}
		if buf.Len() != 3 {
			t.Errorf("pairs = %d", buf.Len())
		}
	})
	rt.Env.Run()
	if got := rt.Counters.Get(CtrMapInputRecords); got != 3 {
		t.Fatalf("input records = %v", got)
	}
	if rt.Counters.Get(CtrMapOutputBytes) == 0 {
		t.Fatal("output bytes not counted")
	}
	if rt.Cluster.CPUAccount().Seconds(PhaseParse) <= 0 {
		t.Fatal("parse CPU not charged")
	}
	if rt.Cluster.CPUAccount().Seconds(PhaseFramework) <= 0 {
		t.Fatal("framework CPU not charged")
	}
}

// Map-output buffers recycle from a finished task to the next one only
// while unstarted blocks remain: 6 blocks on 2 slots reuse 2 buffers, and
// once the queue drains nothing is retained for the reduce phase.
func TestMapBuffersRecycleWhileBlocksRemain(t *testing.T) {
	rt := testRuntime(1)
	const blockSize = 64 << 10
	rt.DFS.RegisterGenerated("in", 6*blockSize, func(b int, s int64) []byte { return make([]byte, s) })
	blocks, _ := rt.DFS.Blocks("in")
	job := &Job{Name: "t", MapSlotsPerNode: 2}
	seen := map[*kv.Buffer]bool{}
	retained := -1
	wg := rt.RunMaps(job, blocks, func(p *sim.Proc, node *cluster.Node, b *dfs.Block) {
		buf := rt.AcquireBuffer(16)
		if buf.Len() != 0 || buf.Bytes() != 0 {
			t.Errorf("block %d: acquired buffer holds %d pairs", b.Index, buf.Len())
		}
		seen[buf] = true
		buf.Add(0, []byte("k"), []byte("v"))
		p.Sleep(sim.Second)
		rt.ReleaseBuffer(buf)
	})
	rt.Env.Go("ctl", func(p *sim.Proc) {
		wg.Wait(p)
		retained = len(rt.freeBufs)
	})
	rt.Env.Run()
	if len(seen) != 2 {
		t.Fatalf("6 tasks on 2 slots used %d distinct buffers, want 2", len(seen))
	}
	if retained != 0 {
		t.Fatalf("%d buffers retained after the last block started", retained)
	}
}

// byteSum is a one-byte counter monoid for the tests here.
type byteSum struct{}

func (byteSum) Identity() []byte { return []byte{0} }
func (byteSum) Combine(a, b []byte) []byte {
	a[0] += b[0]
	return a
}

func TestCombineSorted(t *testing.T) {
	job := &Job{Monoid: byteSum{}}
	buf := kv.NewBuffer(0)
	buf.Add(0, []byte("a"), []byte{1})
	buf.Add(0, []byte("a"), []byte{2})
	buf.Add(1, []byte("a"), []byte{5})
	buf.Add(1, []byte("b"), []byte{7})
	buf.SortByPartitionKey(nil)
	out := kv.NewBuffer(0)
	inputs, saved := CombineSorted(job.Fold().Combiner(), buf, out)
	if inputs != 4 {
		t.Fatalf("inputs = %d", inputs)
	}
	// Only partition 0's "a" group shrank: two 2-byte pairs became one.
	if saved != 2 {
		t.Fatalf("saved = %d bytes, want 2", saved)
	}
	if out.Len() != 3 {
		t.Fatalf("combined pairs = %d", out.Len())
	}
	// Partition 0 "a" combined to 3; partition 1 "a" stays 5.
	vals := map[string]byte{}
	for i := 0; i < out.Len(); i++ {
		vals[fmt.Sprintf("%d/%s", out.Partition(i), out.Key(i))] = out.Val(i)[0]
	}
	if vals["0/a"] != 3 || vals["1/a"] != 5 || vals["1/b"] != 7 {
		t.Fatalf("vals = %v", vals)
	}
}

// TestMaterializeRetainedOutput: Result.Output is built once from the
// retained pair bytes — a later duplicate wins, empty keys and values
// survive, and a retaining job that emitted nothing still gets a map.
func TestMaterializeRetainedOutput(t *testing.T) {
	rt := testRuntime(2)
	job := &Job{Name: "t", OutputPath: "out", RetainOutput: true, Reducers: 2}
	res := &Result{}
	oc := rt.NewOutputCollector(job, res)
	rt.Env.Go("r", func(p *sim.Proc) {
		scratch := []byte("k1")
		oc.Emit(p, 0, 0, scratch, []byte("first"))
		copy(scratch, "zz") // callers reuse their buffers
		oc.Emit(p, 1, 1, []byte(""), []byte("empty key"))
		oc.Emit(p, 1, 1, []byte("empty value"), nil)
		oc.Emit(p, 0, 0, []byte("k1"), []byte("second"))
	})
	rt.Env.Run()
	oc.Materialize()
	want := map[string]string{"k1": "second", "": "empty key", "empty value": ""}
	if res.OutputPairs != 4 || !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("%d pairs, output %q, want %q", res.OutputPairs, res.Output, want)
	}

	empty := &Result{}
	rt.NewOutputCollector(job, empty).Materialize()
	if empty.Output == nil || len(empty.Output) != 0 {
		t.Fatalf("retaining job with no output: %v", empty.Output)
	}
	discarded := &Result{}
	rt.NewOutputCollector(&Job{Name: "d", OutputPath: "out-d", DiscardOutput: true}, discarded).Materialize()
	if discarded.Output != nil {
		t.Fatalf("non-retaining job grew an output map: %v", discarded.Output)
	}
}

func TestOutputCollectorBuffersAndFlushes(t *testing.T) {
	rt := testRuntime(2)
	job := &Job{Name: "t", OutputPath: "out", RetainOutput: true, Reducers: 1}
	res := &Result{}
	oc := rt.NewOutputCollector(job, res)
	rt.Env.Go("r", func(p *sim.Proc) {
		oc.Emit(p, 0, 0, []byte("k1"), []byte("v1"))
		oc.Emit(p, 0, 0, []byte("k2"), []byte("v2"))
		// Buffered: nothing on disk yet.
		if got := rt.Cluster.Node(0).DFSDevice().BytesWritten(); got != 0 {
			t.Errorf("premature flush: %v bytes", got)
		}
		oc.Close(p, 0)
		if got := rt.Cluster.Node(0).DFSDevice().BytesWritten(); got == 0 {
			t.Error("close did not flush")
		}
	})
	rt.Env.Run()
	if res.Output != nil {
		t.Fatalf("output materialized before the job is done: %+v", res.Output)
	}
	oc.Materialize()
	if res.OutputPairs != 2 || len(res.Output) != 2 || res.Output["k1"] != "v1" || res.Output["k2"] != "v2" {
		t.Fatalf("result output = %+v", res.Output)
	}
}

func TestCostModelMergeDefaults(t *testing.T) {
	c := CostModel{CompareNs: 99}.Merged()
	if c.CompareNs != 99 {
		t.Fatal("override lost")
	}
	d := DefaultCosts()
	if c.ParseNsPerByte != d.ParseNsPerByte || c.FrameworkNsPerRecord != d.FrameworkNsPerRecord {
		t.Fatal("defaults not filled")
	}
}

func TestJobSlotDefaults(t *testing.T) {
	j := &Job{Reducers: 60}
	if j.mapSlots() != DefaultMapSlots {
		t.Fatalf("map slots = %d", j.mapSlots())
	}
	if got := j.reduceSlots(10); got != 6 {
		t.Fatalf("reduce slots = %d, want 6 (60 reducers / 10 nodes)", got)
	}
	j.MapSlotsPerNode = 4
	if j.mapSlots() != 4 {
		t.Fatal("explicit map slots ignored")
	}
}

func TestProgressReporter(t *testing.T) {
	rt := testRuntime(2)
	rt.DFS.RegisterGenerated("in", 4*64<<10, func(b int, s int64) []byte { return make([]byte, s) })
	blocks, _ := rt.DFS.Blocks("in")
	var events []string
	job := &Job{Name: "t", Reducers: 2, Progress: func(phase string, done, total int) {
		events = append(events, fmt.Sprintf("%s %d/%d", phase, done, total))
	}}
	mwg := rt.RunMaps(job, blocks, func(p *sim.Proc, node *cluster.Node, b *dfs.Block) {
		p.Sleep(sim.Second)
	})
	rwg := rt.RunReduces(job, func(p *sim.Proc, node *cluster.Node, r int) {
		p.Sleep(sim.Second)
	})
	rt.Env.Run()
	if mwg.Pending() != 0 || rwg.Pending() != 0 {
		t.Fatal("tasks incomplete")
	}
	if len(events) != 6 {
		t.Fatalf("events = %v", events)
	}
	last := events[len(events)-1]
	if last != "map 4/4" && last != "reduce 2/2" {
		t.Fatalf("final event = %q", last)
	}
}
