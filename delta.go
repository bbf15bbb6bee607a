package onepass

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"onepass/internal/dfs"
	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/incr"
	"onepass/internal/kv"
	"onepass/internal/sim"
)

// Delta describes a seeded, replayable evolution of a click-log dataset —
// record updates and deletes inside a deterministic subset of blocks plus
// appended blocks of new clicks (see gen.Delta). Delta.Clicks must be the
// exact generator config behind the dataset it evolves.
type Delta = gen.Delta

// DefaultDelta is the standard mixed delta at a given overall size: frac of
// the base blocks dirty and frac of the base size appended.
var DefaultDelta = gen.DefaultDelta

// DeltaStats quantifies one incremental re-run against its full-re-run
// equivalent.
type DeltaStats struct {
	// BaseBlocks is the base file's block count; DirtyBlocks of them were
	// rewritten and AppendedBlocks were added past the base.
	BaseBlocks     int
	DirtyBlocks    int
	AppendedBlocks int
	// TotalKeys is the distinct grouping keys with live preserved state
	// after the delta; AffectedKeys of them were re-folded by the
	// incremental merge (the rest were served from cached finals).
	TotalKeys    int
	AffectedKeys int
	// StateBytes is the encoded merge input of the incremental re-run: the
	// preserved state actually consulted (cached finals plus affected keys'
	// per-block partials).
	StateBytes int
	// BaseDiskReadBytes and IncrementalDiskReadBytes split the cluster's
	// cumulative disk reads between priming (full pass over the base) and
	// the incremental re-run (delta blocks + preserved state only) — the
	// observable the incremental path exists to shrink.
	BaseDiskReadBytes        float64
	IncrementalDiskReadBytes float64
	// BaseSpan and IncrementalSpan are the virtual time of each phase end to
	// end — capture, state publish and merge — the scope the disk bytes
	// above are split by. Base.Makespan and Incremental.Makespan cover the
	// merge jobs alone.
	BaseSpan        sim.Duration
	IncrementalSpan sim.Duration
}

// DeltaResult is a completed incremental re-run: the primed base answer,
// the incrementally maintained answer after the delta, and the cost split.
// Incremental.OutputChecksum must equal a full re-run over
// DeltaDataset(data, d, cfg.BlockSize) on the same engine — the oracle the
// differential checker and the incremental-smoke CI job enforce.
type DeltaResult struct {
	Base        *Result
	Incremental *Result
	Stats       DeltaStats
}

// DeltaDataset returns the evolved dataset a delta produces — what a full
// re-run reads: the base generator with dirty blocks mutated and appended
// blocks past the base. blockSize must match the Config the base ran with
// (0 = the DFS default); the delta's block granularity is defined by it.
func DeltaDataset(data Dataset, d Delta, blockSize int64) Dataset {
	if blockSize <= 0 {
		blockSize = dfs.DefaultBlockSize
	}
	nBase := int((data.Size + blockSize - 1) / blockSize)
	apply := d.Apply(nBase)
	return Dataset{
		Path: data.Path + ".v2",
		Size: data.Size + int64(d.AppendCount(nBase))*blockSize,
		Gen: func(b int, size int64) []byte {
			if b < nBase {
				return apply(b, baseBlockSize(data.Size, blockSize, b))
			}
			return apply(b, blockSize)
		},
	}
}

func baseBlockSize(totalSize, blockSize int64, b int) int64 {
	if s := totalSize - int64(b)*blockSize; s < blockSize {
		return s
	}
	return blockSize
}

// monoidKey names the aggregation law preserved state composes under —
// partials captured under one law must never be merged under another.
func monoidKey(job Job) string {
	if job.Monoid != nil {
		return fmt.Sprintf("monoid:%T", job.Monoid)
	}
	// The free monoid over the job's raw values: only that job's Reduce can
	// finish it.
	return "holistic:" + job.Name
}

// RunDelta executes the incremental re-run path on a single simulated
// cluster: prime fine-grained reduce-side state with one pass over the base
// dataset, apply the delta, then re-map only the changed blocks and re-fold
// only the affected keys, serving every untouched key from its cached
// final. Both answers come out of real engine runs (cfg.Engine end to end),
// so Incremental.OutputChecksum is directly comparable to a full re-run
// over DeltaDataset(data, d, cfg.BlockSize).
//
// The mechanism is engine-agnostic: a capture run tags every map-output key
// with its origin block and emits the job's fold element per (block, key) —
// a monoid element for a job that declares one, the framed value multiset
// otherwise — and a merge run combines a key's elements in block order and
// finishes them. That is lawful because a job's answer is independent of
// fold order (kv.Monoid's laws; a multiset Reduce). The state is kept and
// published by merge partition — one part per merge reducer, written from
// its own storage node — so the merge job maps it in one parallel wave. For
// the disk engines the parts are spill-backed — written through the
// replicated DFS pipeline and read back with charged I/O; for the resident
// engine they are published as memory-resident blocks, persisting the fold
// tables the way M3R keeps state across jobs, in the memory of the nodes
// that own it. A task that fails on damaged state ends the run with an
// *engine.TaskError.
func RunDelta(cfg Config, data Dataset, job Job, d Delta) (*DeltaResult, error) {
	if job.EmitWhen != nil {
		return nil, fmt.Errorf("onepass: job %q sets EmitWhen; early-emit predicates do not compose with preserved state", job.Name)
	}
	if data.Gen == nil {
		return nil, fmt.Errorf("onepass: dataset %q has no generator", data.Path)
	}
	if data.ArrivalRate > 0 {
		return nil, fmt.Errorf("onepass: delta re-runs need a materialized base dataset, not a streamed one")
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("onepass: %w", err)
	}

	// The capture and merge jobs' part files are read back — the preserved
	// partials, the answers — and must keep their contents whatever the
	// caller asked for its own output; only the merge job retains its
	// output, decoded from those same part files.
	cfg.RetainOutput, cfg.DiscardOutput = false, false
	c := NewCluster(cfg)
	blockSize := c.dfs.BlockSize()
	nBase := int((data.Size + blockSize - 1) / blockSize)
	if nBase == 0 {
		return nil, fmt.Errorf("onepass: dataset %q is empty", data.Path)
	}
	dirty := d.DirtyBlocks(nBase)
	nApp := d.AppendCount(nBase)
	if len(dirty) == 0 && nApp == 0 {
		return nil, fmt.Errorf("onepass: delta changes nothing (zero dirty and appended fractions)")
	}

	// Phase 1 — prime: one tagged pass over the whole base captures
	// per-(block, key) partials, then a merge over all of them produces the
	// base answer and caches every key's final. The state is laid out by the
	// merge job's partitions, as its reducers would keep their own.
	start := c.env.Now()
	taggedBase := data.Path + ".delta/base"
	err := c.dfs.RegisterGenerated(taggedBase, int64(nBase)*blockSize, func(b int, _ int64) []byte {
		return tagBlock(b, data.Gen(b, baseBlockSize(data.Size, blockSize, b)))
	})
	if err != nil {
		return nil, err
	}
	reducers := c.reducers(job) // the merge job's: it runs with job.Reducers
	partition := engine.HashPartitioner()
	state := incr.NewPartitioned(monoidKey(job), reducers, func(k []byte) int { return partition(k, reducers) })
	baseBlocks := make([]int, nBase)
	for b := range baseBlocks {
		baseBlocks[b] = b
	}
	err = capture(c, captureJob(job, taggedBase, data.Path+".delta/partials-base"), state, baseBlocks, nBase, nil)
	if err != nil {
		return nil, err
	}
	baseOut := "out/" + job.Name + "-base"
	base, _, _, err := runMerge(c, job, state, nil, data.Path+".delta/state-base", baseOut)
	if err != nil {
		return nil, err
	}
	if err := state.SetFinals(c.partFiles(baseOut)); err != nil {
		return nil, err
	}
	baseDisk := c.DiskBytesRead()
	baseEnd := c.env.Now()

	// Phase 2 — incremental: a tagged file holding only the changed blocks
	// (mutated dirty blocks + appended blocks), a capture pass over it, and
	// a merge whose input is cached finals for untouched keys plus
	// per-block partials for affected ones.
	changed := append([]int(nil), dirty...)
	for i := 0; i < nApp; i++ {
		changed = append(changed, nBase+i)
	}
	taggedDelta := data.Path + ".delta/changed"
	err = c.dfs.RegisterGenerated(taggedDelta, int64(len(changed))*blockSize, func(i int, _ int64) []byte {
		b := changed[i]
		if b < nBase {
			return tagBlock(b, d.MutatedBlock(b, baseBlockSize(data.Size, blockSize, b)))
		}
		return tagBlock(b, d.AppendedBlock(b-nBase, nBase, blockSize))
	})
	if err != nil {
		return nil, err
	}
	if err := state.CheckKey(monoidKey(job)); err != nil {
		return nil, err
	}
	affected := new(incr.Affected)
	err = capture(c, captureJob(job, taggedDelta, data.Path+".delta/partials-delta"), state, changed, nBase+nApp, affected)
	if err != nil {
		return nil, err
	}
	inc, totalKeys, stateBytes, err := runMerge(c, job, state, affected,
		data.Path+".delta/state-delta", "out/"+job.Name+"-incremental")
	if err != nil {
		return nil, err
	}

	return &DeltaResult{
		Base:        base,
		Incremental: inc,
		Stats: DeltaStats{
			BaseBlocks:               nBase,
			DirtyBlocks:              len(dirty),
			AppendedBlocks:           nApp,
			TotalKeys:                totalKeys,
			AffectedKeys:             affected.Len(),
			StateBytes:               stateBytes,
			BaseDiskReadBytes:        baseDisk,
			IncrementalDiskReadBytes: c.DiskBytesRead() - baseDisk,
			BaseSpan:                 baseEnd.Sub(start),
			IncrementalSpan:          c.env.Now().Sub(baseEnd),
		},
	}, nil
}

// capture runs a capture job and installs its part files as the preserved
// partials of blocks — the blocks of the job's tagged input, numbered below
// nBlocks (see incr.State.Capture).
func capture(c *Cluster, job Job, state *incr.State, blocks []int, nBlocks int, affected *incr.Affected) error {
	if _, err := c.RunJob(job); err != nil {
		return err
	}
	if err := state.Capture(c.partFiles(job.OutputPath), blocks, nBlocks, affected); err != nil {
		return fmt.Errorf("onepass: %s: %w", job.Name, err)
	}
	return nil
}

// partFiles returns the contents of the part files a finished job wrote
// under outputPath, in path order (none when no reducer emitted a pair).
// Like reading Result.Output it charges nothing: the bytes are the host-side
// copy the DFS keeps of what the job's writers were already charged for.
func (c *Cluster) partFiles(outputPath string) [][]byte {
	blocks, err := c.dfs.BlocksUnder(outputPath)
	if err != nil {
		return nil
	}
	parts := make([][]byte, len(blocks))
	for i, b := range blocks {
		parts[i] = b.Peek()
	}
	return parts
}

// reducers is the reduce-task count job runs with on c, defaulted as
// RunJob defaults it.
func (c *Cluster) reducers(job Job) int {
	c.cfg.applyJobDefaults(&job, len(c.cl.ComputeNodes()))
	return job.Reducers
}

// runMerge encodes the preserved state for the given affected-key set
// (nil = every key), publishes it by merge partition, and re-reduces it
// with a real engine job, returning the merge result, the number of live
// keys and the encoded state size. The merge job retains its output, so the
// result's Output is decoded from the part files the job wrote.
func runMerge(c *Cluster, job Job, state *incr.State, affected *incr.Affected, statePath, outPath string) (res *Result, keys, stateBytes int, err error) {
	parts, keys, err := state.Merge(affected)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := publishState(c, statePath, parts); err != nil {
		return nil, 0, 0, err
	}
	res, err = c.RunJob(mergeJob(job, statePath, outPath))
	if err != nil {
		return nil, 0, 0, err
	}
	for _, p := range parts {
		stateBytes += len(p)
	}
	return res, keys, stateBytes, nil
}

// publishState persists the encoded merge input, one part per merge
// partition, into the cluster's DFS: part r as path/part-r-%05d, from
// storage node r mod N, all parts at once — as R reducers would persist
// their own state. Each part is one block with its replica where it was
// written, so the merge job's map tasks read their parts in parallel from
// as many disks. Empty parts are skipped; an empty state is one empty part,
// so the merge job still has an input. The disk engines get the
// spill-backed variant — written through the replicated DFS pipeline, so
// both the write here and the merge job's read are charged I/O; the
// resident engine keeps each part memory-resident on its node, charging
// network hand-off only.
func publishState(c *Cluster, path string, parts [][]byte) error {
	storage := c.cl.StorageNodes()
	empty := !slices.ContainsFunc(parts, func(data []byte) bool { return len(data) > 0 })
	for r, data := range parts {
		if len(data) == 0 && !(empty && r == 0) {
			continue
		}
		name := fmt.Sprintf("%s/part-r-%05d", path, r)
		node := storage[r%len(storage)].ID
		if c.cfg.Engine == Resident {
			if err := c.dfs.RegisterResident(name, node, data); err != nil {
				return err
			}
			continue
		}
		w, err := c.dfs.CreateWriter(name, node, false)
		if err != nil {
			return err
		}
		// The file adopts data: the merge input is built for it, or is the
		// live run, which nothing writes into.
		c.env.Go("delta-state-write-"+strconv.Itoa(r), func(p *sim.Proc) { w.Commit(p, data) })
	}
	return engine.Drive(c.env)
}

// deltaMagic heads every block of a tagged capture input: 4 magic bytes
// plus the little-endian origin block id.
const deltaMagic = "DLT1"

func tagBlock(id int, content []byte) []byte {
	out := make([]byte, 0, len(content)+8)
	out = append(out, deltaMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(id))
	return append(out, content...)
}

func cutTag(block []byte) (int, []byte, bool) {
	if len(block) < 8 || string(block[:4]) != deltaMagic {
		return 0, nil, false
	}
	return int(binary.LittleEndian.Uint32(block[4:8])), block[8:], true
}

// captureJob wraps a job so one engine run yields per-(block, key) partial
// aggregates: the reader peels each block's origin tag, the map prefixes
// every emitted key with uvarint(origin block), and the answer of a
// (block, key) group is the inner job's fold element, not its finished
// answer — the reduce folds the group to one element and a declared monoid
// loses its Final. By the monoid laws a declared job's elements are
// byte-identical across engines' fold orders; an undeclared job's carry the
// group's raw values in arrival order, which its multiset Reduce cannot see.
func captureJob(inner Job, input, output string) Job {
	j := inner
	j.Name = inner.Name + "+capture"
	j.InputPath = input
	j.OutputPath = output
	// The part files are the deliverable (RunDelta captures them into the
	// preserved state); nothing reads a retained copy.
	j.RetainOutput, j.DiscardOutput = false, false
	j.Progress = nil
	read, mapf := inner.Reader, inner.Map
	var block uint64
	var keyBuf []byte
	// The reader and map of one Job instance always run synchronously
	// within a single task closure (and parallel tasks get independent
	// Fresh clones), so the block tag handoff needs no locking.
	j.Reader = func(data []byte, yield func(rec []byte)) {
		id, rest, ok := cutTag(data)
		if !ok {
			engine.Abort(fmt.Errorf("onepass: capture input block for %q is missing its delta tag", inner.Name))
		}
		block = uint64(id)
		read(rest, yield)
	}
	// One tagging closure per Job instance, re-aimed at each call's emit: a
	// closure built per record would be one heap object per record.
	var out Emit
	tagged := func(k, v []byte) {
		keyBuf = binary.AppendUvarint(keyBuf[:0], block)
		keyBuf = append(keyBuf, k...)
		out(keyBuf, v)
	}
	j.Map = func(rec []byte, emit Emit) {
		out = emit
		mapf(rec, tagged)
	}
	fold := inner.Fold()
	j.Reduce, j.Monoid = fold.Partial, fold.Elements()
	if f := inner.Fresh; f != nil {
		j.Fresh = func() Job { return captureJob(f(), input, output) }
	}
	return j
}

// mergeJob re-reduces preserved state with a real engine run: the input is
// the encoded merge file (one kv pair per key-source), the map forwards
// pairs unchanged, and the reduce either passes a cached final through
// ('F') or combines a key's per-block partials in block order and finishes
// the result ('P').
func mergeJob(inner Job, statePath, outPath string) Job {
	j := Job{
		Name:        inner.Name + "+merge",
		InputPath:   statePath,
		BinaryInput: true,
		Reader:      pairRecordReader,
		Map:         pairForwardMap,
		Reduce:      mergeReducer(inner),
		Reducers:    inner.Reducers,
		OutputPath:  outPath,
		// The merged answer is the run's deliverable, kept in its part files
		// for finals caching and decoded from them into Result.Output.
		RetainOutput:  true,
		Costs:         inner.Costs,
		MemoryPerTask: inner.MemoryPerTask,
	}
	if f := inner.Fresh; f != nil {
		j.Fresh = func() Job { return mergeJob(f(), statePath, outPath) }
	}
	return j
}

// pairRecordReader yields each encoded kv pair of a state block as one
// record.
func pairRecordReader(block []byte, yield func(rec []byte)) {
	for rest := block; len(rest) > 0; {
		_, _, n := kv.DecodePair(rest)
		if n == 0 {
			engine.Abort(fmt.Errorf("onepass: truncated pair at byte %d of a delta merge input block", len(block)-len(rest)))
		}
		yield(rest[:n])
		rest = rest[n:]
	}
}

// pairForwardMap re-emits an encoded pair's key and marked value.
func pairForwardMap(rec []byte, emit Emit) {
	k, v, n := kv.DecodePair(rec)
	if n == 0 {
		return
	}
	emit(k, v)
}

// mergeReducer rebuilds a key's answer from its preserved sources. It also
// enforces the contract preserved finals depend on: finishing a key must
// emit exactly one pair, under its own key — otherwise a cached final could
// silently misrepresent the key on the next delta.
func mergeReducer(inner Job) engine.ReduceFunc {
	fold := inner.Fold()
	type part struct {
		block   int
		payload []byte
	}
	var parts []part
	var elem []byte
	// The finish step's emit is built once and re-aimed per key (a closure
	// per key would be a heap object per key): it checks the key and count
	// and forwards to the merge run's emit. That emit may suspend the
	// reducer's process with another reducer's call to this function
	// interleaved, so the shared state is read before forwarding, never
	// after.
	var (
		curKey  []byte
		out     Emit
		emitted int
	)
	checked := func(k, v []byte) {
		if !bytes.Equal(k, curKey) {
			engine.Abort(fmt.Errorf("onepass: delta-capable reduce for %q emitted foreign key %q", curKey, k))
		}
		if emitted++; emitted > 1 {
			engine.Abort(fmt.Errorf("onepass: delta-capable reduce for %q emitted more than one pair", curKey))
		}
		out(k, v)
	}
	return func(key []byte, vs [][]byte, emit Emit) {
		if len(vs) == 1 && len(vs[0]) > 0 && vs[0][0] == incr.MarkFinal {
			emit(key, vs[0][1:])
			return
		}
		parts = parts[:0]
		ascending := true
		for _, v := range vs {
			b, payload, err := incr.DecodePartial(v)
			if err != nil {
				engine.Abort(fmt.Errorf("onepass: delta merge key %q: %w", key, err))
			}
			ascending = ascending && (len(parts) == 0 || parts[len(parts)-1].block < b)
			parts = append(parts, part{block: b, payload: payload})
		}
		// Partials regroup in block order — deterministic no matter which
		// engine captured them or how the merge run grouped the pairs. The
		// merge input lists a key's partials blocks ascending, and the
		// sort-merge engines' stable grouping keeps that order, so the sort
		// only runs behind a hash engine that regrouped them.
		if !ascending {
			slices.SortFunc(parts, func(x, y part) int { return cmp.Compare(x.block, y.block) })
		}
		elem = append(elem[:0], parts[0].payload...)
		for _, p := range parts[1:] {
			elem = fold.Merge(elem, p.payload)
		}
		curKey, out, emitted = key, emit, 0
		if _, err := fold.Finish(key, elem, checked); err != nil {
			engine.Abort(fmt.Errorf("onepass: delta merge: %w", err))
		}
	}
}
