package hadoop

import (
	"bytes"
	"fmt"
	"testing"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/disk"
	"onepass/internal/engine"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/sortmerge"
	"onepass/internal/workloads"
)

// groupTestValue is the value of key k's j-th pair in run r: content a
// reducer can verify byte for byte.
func groupTestValue(r, k, j int) []byte {
	head := fmt.Sprintf("run%d/key%03d/val%03d/", r, k, j)
	return append([]byte(head), bytes.Repeat([]byte{byte('a' + (r+k+j)%26)}, 100-len(head))...)
}

// MergeGroupReduce aliases every value it groups. A sortmerge.Stream decodes
// its run file's bytes in place — its 256 KB buffer is an accounting window,
// not storage — so the values of a group that straddles a refill stay where
// they were. The runs span more than four buffers; every group must see
// intact values — alone and mixed with an in-memory segment, the shape of a
// HOP snapshot merge — and one ReduceSide's grouper serves both merges.
func TestMergeGroupReduceSurvivesStreamRefills(t *testing.T) {
	const runs, keys, perKey = 3, 128, 100
	encodeRun := func(r int) []byte {
		var enc []byte
		for k := 0; k < keys; k++ {
			for j := 0; j < perKey; j++ {
				enc = kv.AppendPair(enc, []byte(fmt.Sprintf("key%03d", k)), groupTestValue(r, k, j))
			}
		}
		return enc
	}
	rs := &ReduceSide{}
	for _, inMemory := range []int{0, 1} {
		// The merge runs on a simulated process, not the test goroutine:
		// collect the first failure and report it after the run.
		var failure string
		fail := func(format string, args ...any) {
			if failure == "" {
				failure = fmt.Sprintf(format, args...)
			}
		}
		env := sim.New()
		store := disk.NewStore(disk.NewDevice(env, "scratch", disk.SSD))
		env.Go("merge", func(p *sim.Proc) {
			var streams []kv.PairStream
			for r := 0; r < runs; r++ {
				enc := encodeRun(r)
				if r < inMemory {
					streams = append(streams, kv.NewSliceStream(enc))
					continue
				}
				if len(enc) < 4*(256<<10) {
					fail("run of %d bytes does not span four stream buffers", len(enc))
				}
				streams = append(streams, sortmerge.NewStream(p, sortmerge.WriteRun(p, store, fmt.Sprintf("run-%d", r), enc)))
			}
			groups := 0
			job := &engine.Job{Reduce: func(key []byte, vals [][]byte, emit engine.Emit) {
				k := groups
				groups++
				if want := fmt.Sprintf("key%03d", k); string(key) != want {
					fail("group %d has key %q, want %q", k, key, want)
				}
				if len(vals) != runs*perKey {
					fail("key %s: %d values, want %d", key, len(vals), runs*perKey)
					return
				}
				// The merge is stable by stream index: run 0's values first.
				for i, v := range vals {
					if want := groupTestValue(i/perKey, k, i%perKey); !bytes.Equal(v, want) {
						fail("key %s value %d corrupted: %q, want %q", key, i, v, want)
					}
				}
			}}
			if _, inputs := rs.MergeGroupReduce(streams, job, func(k, v []byte) {}); inputs != runs*keys*perKey {
				fail("reduced %d values, want %d", inputs, runs*keys*perKey)
			}
			if groups != keys {
				fail("%d groups, want %d", groups, keys)
			}
		})
		env.Run()
		if failure != "" {
			t.Fatalf("%d of %d streams in memory: %s", inMemory, runs, failure)
		}
	}
}

// The pull shuffle hands ReduceSide.Add slices of the map-output files'
// frames — no copy — and a frame is shared: the other reducers' partitions
// sit on either side in the same array, and a re-fetch after a fault reads
// the same bytes again. So nothing downstream may sort, merge or append
// through a fetched slice. The test cuts the middle partition out of real
// map outputs, drives it through spills, multi-pass merges and the final
// scan under a starved budget, with and without a combiner, and demands
// every frame byte for byte as it was — and the right answer.
//
// Run files live by the same rule one stage on: a run adopts the slab it was
// merged into, and every later reader — merge passes, HOP's snapshot
// re-merges (made here the way hop makes them, lazily streamed runs beside
// the buffered segments), the final scan — aliases the file's bytes. So each
// run is snapshotted when it first appears and compared once everything that
// could have read it is done, deleted or not.
func TestReduceSideLeavesFetchedFramesIntact(t *testing.T) {
	const maps, parts, keys = 12, 3, 40
	sum := func(key []byte, vals [][]byte, emit engine.Emit) {
		n := 0
		for _, v := range vals {
			var x int
			fmt.Sscan(string(v), &x)
			n += x
		}
		emit(key, []byte(fmt.Sprint(n)))
	}
	for _, combiner := range []bool{false, true} {
		env := sim.New()
		ccfg := cluster.DefaultConfig()
		ccfg.Nodes = 2
		cl := cluster.New(env, ccfg)
		rt := engine.NewRuntime(env, cl, dfs.New(cl, 64<<10, 1))
		job := &engine.Job{Name: "frames", OutputPath: "out/frames", Reducers: parts,
			RetainOutput: true, MemoryPerTask: 2 << 10, Reduce: sum}
		if combiner {
			job.Monoid = workloads.CountMonoid{}
		}
		res := &engine.Result{}
		oc := rt.NewOutputCollector(job, res)
		var frames, snapshots [][]byte
		var runs, runSnapshots [][]byte
		seenRuns := map[*sortmerge.Run]bool{}
		want := map[string]int{}
		env.Go("reduce", func(p *sim.Proc) {
			rs := NewReduceSide(rt, job, job.Costs.Merged(), cl.Node(0), 1, 2)
			for m := 0; m < maps; m++ {
				var frame []byte
				partLen := make([]int64, parts)
				for part := 0; part < parts; part++ {
					before := len(frame)
					for k := 0; k < keys; k++ {
						key := fmt.Sprintf("p%d-key%03d", part, k)
						for j := 0; j < 2; j++ {
							frame = kv.AppendPair(frame, []byte(key), []byte(fmt.Sprint(m+k+j)))
							if part == 1 {
								want[key] += m + k + j
							}
						}
					}
					partLen[part] = int64(len(frame) - before)
				}
				out := &engine.MapOutput{TaskID: m, Held: make([]int, parts)}
				rt.WriteMapOutput(p, cl.Node(1), job, out, frame, partLen)
				frames = append(frames, frame)
				snapshots = append(snapshots, bytes.Clone(frame))
				rs.Add(p, out.PartData(1))
				out.ConsumePart(1)
				for _, run := range rs.Merger.RunList() {
					if !seenRuns[run] {
						seenRuns[run] = true
						runs = append(runs, run.File.Data())
						runSnapshots = append(runSnapshots, bytes.Clone(run.File.Data()))
					}
				}
				if m%4 == 3 {
					var streams []kv.PairStream
					for _, run := range rs.Merger.RunList() {
						streams = append(streams, sortmerge.NewStream(p, run))
					}
					streams = append(streams, rs.Acc.PeekStreams()...)
					rs.MergeGroupReduce(streams, job, func(k, v []byte) {})
				}
			}
			rs.Finish(p, oc)
		})
		env.Run()
		oc.Materialize()
		if rt.Counters.Get(engine.CtrReduceSpillBytes) == 0 || rt.Counters.Get(engine.CtrMergePasses) == 0 {
			t.Fatalf("combiner=%v: budget forced %v spill bytes and %v merge passes; both paths must run",
				combiner, rt.Counters.Get(engine.CtrReduceSpillBytes), rt.Counters.Get(engine.CtrMergePasses))
		}
		for m := range frames {
			if !bytes.Equal(frames[m], snapshots[m]) {
				t.Fatalf("combiner=%v: the reduce side wrote through its slice of map output %d's frame", combiner, m)
			}
		}
		if len(runs) < 4 {
			t.Fatalf("combiner=%v: only %d run files seen", combiner, len(runs))
		}
		for i := range runs {
			if !bytes.Equal(runs[i], runSnapshots[i]) {
				t.Fatalf("combiner=%v: run file %d of %d changed after it was written", combiner, i, len(runs))
			}
		}
		if len(res.Output) != len(want) {
			t.Fatalf("combiner=%v: %d keys out, want %d", combiner, len(res.Output), len(want))
		}
		for k, n := range want {
			if res.Output[k] != fmt.Sprint(n) {
				t.Fatalf("combiner=%v: %s = %q, want %d", combiner, k, res.Output[k], n)
			}
		}
	}
}
