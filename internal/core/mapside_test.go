package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/enginetest"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/workloads"
)

// A declared job's pairs fold into the combine tables as Map emits them, and
// the tables drain straight into the partition frame. Chunk identities and
// bytes are what a re-executed attempt is matched on, so the frame must be
// the one the former path — fill a buffer, combine it into a second buffer,
// pack that — built: same bytes, same chunks in the same seal order, same
// flushes, on a first attempt and on a recovery re-execution, whether the
// budget forces no flush before the input ends, one, or many.
func TestMapSideMatchesReference(t *testing.T) {
	const many = 1 << 20
	for _, tc := range []struct {
		name   string
		w      *workloads.Workload
		block  int64
		budget int64
		// The budget flushes before the input ends in the task that has
		// the most of them: none, one, or many.
		flushes [2]int
	}{
		{"per-user-count/ample", workloads.PerUserCount(smallClicks()), 64 << 10, 1 << 30, [2]int{0, 0}},
		{"per-user-count/starved", workloads.PerUserCount(smallClicks()), 48 << 10, 1, [2]int{1, 1}},
		{"page-frequency/starved", workloads.PageFrequency(smallClicks()), 256 << 10, 1, [2]int{3, many}},
		{"inverted-index/ample", workloads.InvertedIndex(smallDocs()), 64 << 10, 1 << 30, [2]int{0, 0}},
		{"inverted-index/tight", workloads.InvertedIndex(smallDocs()), 64 << 10, 16 << 10, [2]int{3, many}},
	} {
		for _, R := range []int{1, 7, 20} {
			t.Run(fmt.Sprintf("%s/R=%d", tc.name, R), func(t *testing.T) {
				f := enginetest.New(t, tc.w, enginetest.Config{Reducers: R, BlockSize: tc.block, MemPerTask: tc.budget})
				job := f.Job
				opts := Plan(Incremental).Defaults
				opts.ChunkBytes = 256
				hj := &hashJob{JobRun: &engine.JobRun{RT: f.RT, Job: &job, Opts: opts,
					Costs: job.Costs.Merged(), Partition: engine.HashPartitioner()}, mode: Incremental}
				blocks, err := f.RT.DFS.Blocks(job.InputPath)
				if err != nil {
					t.Fatal(err)
				}
				grouping := f.RT.TaskMemory(&job)
				most := 0
				f.RT.Env.Go("map", func(p *sim.Proc) {
					node := f.RT.Cluster.Node(0)
					for _, b := range blocks {
						// The references read the mapped buffer in the map
						// closure's post step, the last code that sees it.
						var want *kv.PartitionFrame
						_, err := f.RT.ExecuteMapWith(p, node, &job, b, hj.Partition, nil, func(_ *engine.Job, buf *kv.Buffer) {
							var wantFlushes []int
							want, wantFlushes = refMapFrame(buf, R, job.Fold(), grouping, opts.ChunkBytes)
							most = max(most, len(wantFlushes)-1)

							// The combiner on its own: same frame, same flushes, and
							// its own counts conserve the pair bytes it was handed.
							mc := newMapCombiner(R, job.Fold(), grouping, opts.ChunkBytes)
							for i := 0; i < buf.Len(); i++ {
								mc.add(buf.Partition(i), buf.Key(i), buf.Val(i))
							}
							sameFrame(t, fmt.Sprintf("block %d combiner", b.Index), mc.finish(), want)
							if !slices.Equal(mc.flushes, wantFlushes) {
								t.Errorf("block %d: flushed %v states, reference %v", b.Index, mc.flushes, wantFlushes)
							}
							if got := mc.saved + mc.frame.PairBytes(); got != buf.Bytes() {
								t.Errorf("block %d: elided %d + final %d = %d bytes, raw %d",
									b.Index, mc.saved, mc.frame.PairBytes(), got, buf.Bytes())
							}
						})
						if err != nil {
							t.Error(err)
							return
						}

						// The engine's path, first attempt.
						sameFrame(t, fmt.Sprintf("block %d", b.Index), hj.buildMapChunks(p, node, b), want)

						// Recovery: partition r had its first r%3 chunks delivered,
						// and every fifth partition was fully pushed.
						lost := &engine.MapOutput{TaskID: b.Index, Pushed: make([]bool, R), Delivered: make([]int, R)}
						for r := range lost.Delivered {
							lost.Delivered[r] = r % 3
							lost.Pushed[r] = r%5 == 4
						}
						tails := make([][]byte, R)
						for _, c := range want.Chunks {
							if !lost.WasPushed(c.Part) && c.Seq >= lost.Delivered[c.Part] {
								tails[c.Part] = append(tails[c.Part], c.Data...)
							}
						}
						fresh := hj.reexecMapOutput(p, node, b, lost)
						for r := range tails {
							if !bytes.Equal(fresh.PartData(r), tails[r]) {
								t.Fatalf("block %d re-executed: partition %d holds %d bytes, want the %d-byte undelivered tail",
									b.Index, r, len(fresh.PartData(r)), len(tails[r]))
							}
						}
					}
				})
				f.RT.Env.Run()
				if most < tc.flushes[0] || most > tc.flushes[1] {
					t.Fatalf("at most %d budget flushes in one task, want %d to %d", most, tc.flushes[0], tc.flushes[1])
				}
			})
		}
	}
}

// The combine-conservation audit holds a map task's raw bytes to what its
// folds elided plus what its drain laid out, each counted where it happens.
// A combiner that leaves a partition undrained loses that partition's pairs,
// and the audit must say so.
func TestCombineConservationCatchesAnUndrainedTable(t *testing.T) {
	job := workloads.PerUserCount(smallClicks()).Job
	ledger := func(drained int) []engine.AuditFailure {
		mc := newMapCombiner(4, job.Fold(), 1<<30, 512)
		var raw int64
		for i := 0; i < 400; i++ {
			key, val := []byte(fmt.Sprintf("user-%03d", i%60)), []byte(fmt.Sprint(1+i%3))
			mc.add(i%4, key, val)
			raw += int64(len(key) + len(val))
		}
		mc.parts = drained
		mc.finish()
		a := engine.NewAudit()
		a.MapRawPairs(0, raw)
		a.CombineSaved(0, mc.saved)
		a.MapFinalPairs(0, mc.frame.PairBytes())
		return a.Finish(nil)
	}
	if failures := ledger(4); len(failures) != 0 {
		t.Fatalf("every partition drained, yet the audit failed:\n%s", engine.FormatAuditFailures(failures))
	}
	failures := ledger(3)
	if len(failures) != 1 || failures[0].Invariant != "combine-conservation" {
		t.Fatalf("one partition left undrained: want one combine-conservation failure, got:\n%s", engine.FormatAuditFailures(failures))
	}
}

// sameFrame demands equal slabs, partition indexes and chunk lists.
func sameFrame(t *testing.T, what string, got, want *kv.PartitionFrame) {
	t.Helper()
	if !bytes.Equal(got.Data, want.Data) || !slices.Equal(got.PartLen, want.PartLen) {
		t.Fatalf("%s: frame of %d bytes %v, want %d bytes %v with the same contents",
			what, len(got.Data), got.PartLen, len(want.Data), want.PartLen)
	}
	if len(got.Chunks) != len(want.Chunks) {
		t.Fatalf("%s: %d chunks, want %d", what, len(got.Chunks), len(want.Chunks))
	}
	for i, c := range got.Chunks {
		w := want.Chunks[i]
		if c.Part != w.Part || c.Seq != w.Seq || !bytes.Equal(c.Data, w.Data) {
			t.Fatalf("%s: chunk %d is (part %d, seq %d, %d bytes), want (part %d, seq %d, %d bytes) with the same contents",
				what, i, c.Part, c.Seq, len(c.Data), w.Part, w.Seq, len(w.Data))
		}
	}
}

// chunksByPartition lists each partition's chunks in sequence order, as the
// push loop delivers them, from a frame whose chunks interleave partitions.
func TestChunksByPartition(t *testing.T) {
	const R = 3
	buf := kv.NewBuffer(0)
	for i := 0; i < 300; i++ {
		buf.Add(i*7%R, []byte(fmt.Sprintf("key-%03d", i)), []byte("value"))
	}
	frame := kv.PackPartitions(buf, R, 256)
	flat, ends := chunksByPartition(frame.Chunks, R)
	if len(ends) != R || ends[R-1] != len(frame.Chunks) || len(flat) != len(frame.Chunks) {
		t.Fatalf("ends %v over %d chunks", ends, len(frame.Chunks))
	}
	lo := 0
	for r := 0; r < R; r++ {
		seq := 0
		for _, c := range frame.Chunks {
			if c.Part != r {
				continue
			}
			if got := flat[lo+seq]; c.Seq != seq || !bytes.Equal(got, c.Data) {
				t.Fatalf("partition %d chunk %d: %d bytes listed, chunk %d has %d", r, seq, len(got), c.Seq, len(c.Data))
			}
			seq++
		}
		if lo+seq != ends[r] || seq < 2 {
			t.Fatalf("partition %d: %d chunks listed up to %d, ends %v", r, seq, lo+seq, ends)
		}
		lo = ends[r]
	}
}
