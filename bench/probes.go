package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"onepass"
	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/disk"
	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/hadoop"
	"onepass/internal/hashlib"
	"onepass/internal/incr"
	"onepass/internal/kv"
	"onepass/internal/memtable"
	"onepass/internal/metrics"
	"onepass/internal/profile"
	"onepass/internal/sim"
	"onepass/internal/sketch"
	"onepass/internal/sortmerge"
	"onepass/internal/trace"
	"onepass/internal/workloads"
)

// A probe is a direct timed call into one leaf layer's public functions, fed
// from blocks generated with the run's seed. Probes give the per-layer
// numbers no span around a whole job can: the cost of one operation of one
// layer. Every traced run executes all of them.
type probe struct {
	outputs []probeOutput
	run     func(in *probeInput, budget time.Duration) []float64
}

type probeOutput struct{ name, unit, better string }

const (
	probeBlock    = 128 << 10
	probeReducers = 20
	probeFanIn    = 8
)

// probeInput is the data every probe draws from, built once per traced run.
type probeInput struct {
	cc         gen.ClickConfig
	dc         gen.DocConfig
	clickBlock []byte
	docBlock   []byte

	// Sessionization's map output over clickBlock: user keys (Zipf) and
	// click values, with each pair's reduce partition.
	keys, vals [][]byte
	parts      []int
	// listOf[i] numbers pair i's key among the distinct keys.
	listOf []int
	nLists int
	// runs are probeFanIn sorted, encoded slices of the pairs.
	runs [][]byte

	// A traced sessionization@hadoop run over four blocks, for the trace
	// exporter and profile.Compute probes.
	log *onepass.TraceLog
	res *onepass.Result
}

func newProbeInput(seed uint64) (*probeInput, error) {
	in := &probeInput{cc: clickConfig(seed), dc: docConfig(seed)}
	in.clickBlock = in.cc.Block(0, probeBlock)
	in.docBlock = in.dc.Block(0, probeBlock)

	sess := workloads.Sessionization(in.cc)
	part := hadoop.Partitioner()
	index := map[string]int{}
	sess.Job.Reader(in.clickBlock, func(rec []byte) {
		sess.Job.Map(rec, func(k, v []byte) {
			k, v = bytes.Clone(k), bytes.Clone(v)
			in.keys, in.vals = append(in.keys, k), append(in.vals, v)
			in.parts = append(in.parts, part(k, probeReducers))
			id, ok := index[string(k)]
			if !ok {
				id = len(index)
				index[string(k)] = id
			}
			in.listOf = append(in.listOf, id)
		})
	})
	in.nLists = len(index)

	for r := 0; r < probeFanIn; r++ {
		var idx []int
		for i := r; i < len(in.keys); i += probeFanIn {
			idx = append(idx, i)
		}
		sort.SliceStable(idx, func(a, b int) bool { return bytes.Compare(in.keys[idx[a]], in.keys[idx[b]]) < 0 })
		var enc []byte
		for _, i := range idx {
			enc = kv.AppendPair(enc, in.keys[i], in.vals[i])
		}
		in.runs = append(in.runs, enc)
	}

	cfg := onepass.DefaultConfig()
	cfg.BlockSize = probeBlock
	cfg.Reducers = probeReducers
	cfg.DiscardOutput = true
	in.log = onepass.NewTraceLog()
	cfg.Trace = in.log
	var err error
	in.res, err = onepass.Run(cfg, onepass.Dataset{Path: "input/probe", Size: 4 * probeBlock, Gen: in.cc.Block}, sess.Job)
	return in, err
}

// perOp times batch — which performs some operations and returns how many —
// five times, each sample repeating batch until a fifth of the budget has
// passed, and returns the median seconds per operation.
func perOp(budget time.Duration, batch func() int) float64 {
	samples := make([]float64, 0, 5)
	for i := 0; i < 5; i++ {
		ops := 0
		t0 := time.Now()
		elapsed := time.Duration(0)
		for elapsed < budget/5 || ops == 0 {
			ops += batch()
			elapsed = time.Since(t0)
		}
		samples = append(samples, elapsed.Seconds()/float64(ops))
	}
	return median(samples)
}

func nsPerOp(budget time.Duration, batch func() int) []float64 {
	return []float64{perOp(budget, batch) * 1e9}
}

// mbPerS reports a batch that returns bytes as MiB per second.
func mbPerS(budget time.Duration, batch func() int) []float64 {
	return []float64{1 / perOp(budget, batch) / (1 << 20)}
}

// simBed is a default simulated cluster with a DFS file of the given blocks
// registered as "in" — what the probes of layers above sim need around them.
type simBed struct {
	env    *sim.Env
	cl     *cluster.Cluster
	d      *dfs.DFS
	rt     *engine.Runtime
	blocks []*dfs.Block
}

func newSimBed(block []byte, nBlocks int) *simBed {
	b := &simBed{env: sim.New()}
	b.cl = cluster.New(b.env, cluster.DefaultConfig())
	b.d = dfs.New(b.cl, probeBlock, 1)
	err := b.d.RegisterGenerated("in", int64(nBlocks)*probeBlock, func(int, int64) []byte { return block })
	if err == nil {
		b.blocks, err = b.d.Blocks("in")
	}
	if err != nil {
		panic(err) // a fresh DFS cannot already hold "in"
	}
	b.rt = engine.NewRuntime(b.env, b.cl, b.d)
	return b
}

// run executes fn as one simulated process to completion.
func (b *simBed) run(fn func(p *sim.Proc)) {
	b.env.Go("probe", fn)
	b.env.Run()
}

func mapProbe(name string, mk func(in *probeInput) (*workloads.Workload, []byte)) probe {
	return probe{
		outputs: []probeOutput{{"workloads.map_ns_per_rec." + name, "ns/rec", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			w, block := mk(in)
			job := w.Job
			job.Reducers = probeReducers
			records := int(countRecords(&job, [][]byte{block}))
			bed := newSimBed(block, 1)
			part := hadoop.Partitioner()
			return nsPerOp(budget, func() int {
				bed.run(func(p *sim.Proc) {
					if _, err := bed.rt.ExecuteMap(p, bed.cl.Node(0), &job, bed.blocks[0], part); err != nil {
						panic(err)
					}
				})
				return records
			})
		},
	}
}

var probes = []probe{
	{
		outputs: []probeOutput{{"gen.click_mb_per_s", "MB/s", "higher"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			i := 0
			return mbPerS(budget, func() int { i++; return len(in.cc.Block(i, probeBlock)) })
		},
	},
	{
		outputs: []probeOutput{{"gen.doc_mb_per_s", "MB/s", "higher"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			i := 0
			return mbPerS(budget, func() int { i++; return len(in.dc.Block(i, probeBlock)) })
		},
	},
	{
		outputs: []probeOutput{
			{"kv.sort_ns_per_rec", "ns/rec", "lower"},
			{"kv.sort_cmp_per_rec", "count", "lower"},
		},
		run: func(in *probeInput, budget time.Duration) []float64 {
			var cmps, recs int64
			sec := perOp(budget, func() int {
				buf := kv.NewBuffer(len(in.clickBlock))
				for i, k := range in.keys {
					buf.Add(in.parts[i], k, in.vals[i])
				}
				buf.SortByPartitionKey(&cmps)
				recs += int64(len(in.keys))
				return len(in.keys)
			})
			return []float64{sec * 1e9, float64(cmps) / float64(recs)}
		},
	},
	{
		outputs: []probeOutput{{"kv.codec_ns_per_pair", "ns/op", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			var enc []byte
			return nsPerOp(budget, func() int {
				enc = enc[:0]
				for i, k := range in.keys {
					enc = kv.AppendPair(enc, k, in.vals[i])
				}
				n := 0
				for dec := kv.NewDecoder(enc); ; n++ {
					if _, _, ok := dec.Next(); !ok {
						break
					}
				}
				return n
			})
		},
	},
	{
		outputs: []probeOutput{{"kv.merge_ns_per_rec", "ns/rec", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			return nsPerOp(budget, func() int {
				streams := make([]kv.PairStream, len(in.runs))
				for i, enc := range in.runs {
					streams[i] = kv.NewSliceStream(enc)
				}
				n := 0
				group := func(_ []byte, vals [][]byte) { n += len(vals) }
				var g kv.Grouper
				var cmps int64
				kv.MergeStreams(streams, &cmps, func(k, v []byte) { g.Add(k, v, &cmps, group) })
				g.Flush(group)
				return n
			})
		},
	},
	{
		outputs: []probeOutput{{"sortmerge.mergepass_ns_per_rec", "ns/rec", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			names := make([]string, len(in.runs))
			for i := range names {
				names[i] = fmt.Sprintf("run-%d", i)
			}
			return nsPerOp(budget, func() int {
				env := sim.New()
				store := disk.NewStore(disk.NewDevice(env, "d", disk.HDD))
				env.Go("merge", func(p *sim.Proc) {
					m := sortmerge.NewMerger(store, "m", probeFanIn)
					for i, enc := range in.runs {
						m.AddRun(sortmerge.WriteRun(p, store, names[i], enc))
					}
					m.MergePass(p)
				})
				env.Run()
				return len(in.keys)
			})
		},
	},
	{
		outputs: []probeOutput{{"memtable.add_ns_per_op", "ns/op", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			tb := memtable.NewTable(hashlib.NewFamily(1).New(), memtable.NewArena(0), 1<<10)
			return nsPerOp(budget, func() int {
				for _, k := range in.keys {
					tb.Add(k, 1)
				}
				return len(in.keys)
			})
		},
	},
	{
		outputs: []probeOutput{{"memtable.liststore_append_ns_per_op", "ns/op", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			ids := make([]memtable.ListID, in.nLists)
			return nsPerOp(budget, func() int {
				s := memtable.NewListStore(memtable.NewArena(0))
				for i := range ids {
					ids[i] = s.NewList()
				}
				for i, v := range in.vals {
					s.Append(ids[in.listOf[i]], v)
				}
				return len(in.vals)
			})
		},
	},
	{
		outputs: []probeOutput{{"hashlib.hash_ns_per_key", "ns/op", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			h := hashlib.NewFamily(1).New()
			var sink uint64
			out := nsPerOp(budget, func() int {
				for _, k := range in.keys {
					sink += h.Hash(k)
				}
				return len(in.keys)
			})
			probeSink = sink
			return out
		},
	},
	{
		outputs: []probeOutput{{"sketch.offer_ns_per_op", "ns/op", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			// Fewer counters than distinct keys, so offers also evict.
			s := sketch.NewSpaceSaving(256)
			return nsPerOp(budget, func() int {
				for _, k := range in.keys {
					s.Offer(k, 1)
				}
				return len(in.keys)
			})
		},
	},
	mapProbe("sessionization", func(in *probeInput) (*workloads.Workload, []byte) {
		return workloads.Sessionization(in.cc), in.clickBlock
	}),
	mapProbe("per-user-count", func(in *probeInput) (*workloads.Workload, []byte) {
		return workloads.PerUserCount(in.cc), in.clickBlock
	}),
	mapProbe("inverted-index", func(in *probeInput) (*workloads.Workload, []byte) {
		return workloads.InvertedIndex(in.dc), in.docBlock
	}),
	{
		outputs: []probeOutput{{"sim.events_per_s", "1/s", "higher"}},
		run: func(_ *probeInput, budget time.Duration) []float64 {
			const procs, sleeps = 64, 64
			sec := perOp(budget, func() int {
				env := sim.New()
				for i := 0; i < procs; i++ {
					env.Go("sleeper", func(p *sim.Proc) {
						for s := 0; s < sleeps; s++ {
							p.Sleep(sim.Microsecond)
						}
					})
				}
				env.Run()
				return procs * sleeps
			})
			return []float64{1 / sec}
		},
	},
	{
		outputs: []probeOutput{{"sim.resource_use_ns_per_op", "ns/op", "lower"}},
		run: func(_ *probeInput, budget time.Duration) []float64 {
			const procs, uses = 16, 64
			return nsPerOp(budget, func() int {
				env := sim.New()
				r := env.NewResource("contended", 2)
				for i := 0; i < procs; i++ {
					env.Go("user", func(p *sim.Proc) {
						for u := 0; u < uses; u++ {
							r.Use(p, 1, sim.Microsecond)
						}
					})
				}
				env.Run()
				return procs * uses
			})
		},
	},
	{
		outputs: []probeOutput{{"engine.pushchannel_ns_per_chunk", "ns/op", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			const chunks = 256
			bed := newSimBed(in.clickBlock, 1)
			chunk := in.clickBlock[:4<<10]
			return nsPerOp(budget, func() int {
				pc := bed.rt.NewPushChannels(1, 1<<30)[0]
				bed.env.Go("push", func(p *sim.Proc) {
					for i := 0; i < chunks; i++ {
						pc.TryPush(p, 0, 1, 0, i, chunk)
					}
					pc.Close()
				})
				bed.run(func(p *sim.Proc) {
					for {
						if _, ok := pc.Pop(p); !ok {
							return
						}
					}
				})
				return chunks
			})
		},
	},
	{
		outputs: []probeOutput{{"dfs.readblock_ns_per_block", "ns/op", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			bed := newSimBed(in.clickBlock, 64)
			nodes := len(bed.cl.Nodes())
			return nsPerOp(budget, func() int {
				bed.run(func(p *sim.Proc) {
					for _, b := range bed.blocks {
						if _, err := bed.d.ReadBlock(p, b, b.Index%nodes); err != nil {
							panic(err)
						}
					}
				})
				return len(bed.blocks)
			})
		},
	},
	{
		outputs: []probeOutput{{"metrics.counters_add_ns_per_op", "ns/op", "lower"}},
		run: func(_ *probeInput, budget time.Duration) []float64 {
			names := []string{
				engine.CtrMapInputBytes, engine.CtrMapInputRecords, engine.CtrMapOutputBytes,
				engine.CtrMapOutputRecords, engine.CtrShuffleBytes, engine.CtrSortComparisons,
				engine.CtrMergeComparisons, engine.CtrHashOps,
			}
			c := metrics.NewCounters()
			return nsPerOp(budget, func() int {
				for i := 0; i < 4096; i++ {
					c.Add(names[i%len(names)], 1)
				}
				return 4096
			})
		},
	},
	{
		outputs: []probeOutput{{"dfs.writer_mb_per_s", "MB/s", "higher"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			return mbPerS(budget, func() int {
				// A fresh DFS per batch: written files are retained, as the
				// delta path's published state is.
				bed := newSimBed(in.clickBlock, 1)
				w, err := bed.d.CreateWriter("state", 0, false)
				if err != nil {
					panic(err)
				}
				bed.run(func(p *sim.Proc) {
					for i := 0; i < 8; i++ {
						w.Append(p, in.clickBlock)
					}
				})
				return 8 * len(in.clickBlock)
			})
		},
	},
	{
		outputs: []probeOutput{
			{"incr.mergeinput_ns_per_key", "ns/op", "lower"},
			{"incr.decode_ns_per_partial", "ns/op", "lower"},
		},
		run: func(in *probeInput, budget time.Duration) []float64 {
			// Four pseudo-blocks, each holding a quarter of the pairs as
			// per-key partials.
			st := incr.New("probe")
			for b := 0; b < 4; b++ {
				partials := map[string][]byte{}
				for i := b; i < len(in.keys); i += 4 {
					partials[string(in.keys[i])] = in.vals[i]
				}
				st.ReplaceBlock(b, partials, nil)
			}
			keys := st.Keys()
			var input []byte
			mergeNs := nsPerOp(budget/2, func() int {
				var err error
				if input, err = st.MergeInput(nil); err != nil {
					panic(err)
				}
				return keys
			})
			var partials [][]byte
			for dec := kv.NewDecoder(input); ; {
				_, v, ok := dec.Next()
				if !ok {
					break
				}
				partials = append(partials, v)
			}
			decodeNs := nsPerOp(budget/2, func() int {
				for _, v := range partials {
					if _, _, err := incr.DecodePartial(v); err != nil {
						panic(err)
					}
				}
				return len(partials)
			})
			return []float64{mergeNs[0], decodeNs[0]}
		},
	},
	{
		outputs: []probeOutput{{"trace.emit_ns_per_event", "ns/op", "lower"}},
		run: func(_ *probeInput, budget time.Duration) []float64 {
			return nsPerOp(budget, func() int {
				log := trace.NewLog()
				for i := 0; i < 4096; i++ {
					typ := trace.TaskStart
					if i&1 == 1 {
						typ = trace.TaskFinish
					}
					log.Emit(trace.Event{
						At: sim.Time(i), Type: typ, Name: "map", Engine: "probe",
						Node: i % 10, Task: i / 2, Args: []trace.Arg{trace.Num("bytes", float64(i))},
					})
				}
				return 4096
			})
		},
	},
	{
		outputs: []probeOutput{{"trace.chrome_ns_per_event", "ns/op", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			return nsPerOp(budget, func() int {
				if _, err := chromeBytes(in.log); err != nil {
					panic(err)
				}
				return in.log.Len()
			})
		},
	},
	{
		outputs: []probeOutput{{"profile.compute_s", "s", "lower"}},
		run: func(in *probeInput, budget time.Duration) []float64 {
			return []float64{perOp(budget, func() int {
				if _, err := profile.Compute(in.log, in.res); err != nil {
					panic(err)
				}
				return 1
			})}
		},
	},
	{
		outputs: []probeOutput{{"metrics.histogram_record_ns_per_op", "ns/op", "lower"}},
		run: func(_ *probeInput, budget time.Duration) []float64 {
			h := metrics.NewHistogram()
			return nsPerOp(budget, func() int {
				for i := int64(0); i < 4096; i++ {
					h.Record(i * 7919 % 1e9)
				}
				return 4096
			})
		},
	},
}

// probeSink keeps the hash probe's result alive so the loop is not removed.
var probeSink uint64

// runProbes executes every probe with an equal share of budget and returns
// the per-layer metrics by name.
func runProbes(seed uint64, budget time.Duration, rec *recorder) (map[string]float64, error) {
	defer rec.start("probes")()
	in, err := newProbeInput(seed)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	each := budget / time.Duration(len(probes))
	for _, p := range probes {
		end := rec.start("probe." + p.outputs[0].name)
		vals := p.run(in, each)
		end()
		for i, o := range p.outputs {
			out[o.name] = vals[i]
		}
	}
	return out, nil
}
