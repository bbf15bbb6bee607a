package check

import (
	"fmt"
	"math/rand"

	"onepass"
	"onepass/internal/workloads"
)

// Tuple is one fuzzed differential-check case: a workload, an input size,
// and a seeded configuration with every engine-independent knob randomized
// inside its valid range. The Engine field of Cfg is left zero; the harness
// sets it as it sweeps the tuple across all engines.
type Tuple struct {
	Seed     int64
	Workload *onepass.Workload
	// Clicks is the click-stream generator config used both by click
	// workloads and by the chained page-count -> top-k pipeline.
	Clicks onepass.ClickConfig
	Input  int64
	Cfg    onepass.Config
	// Delta is the fuzzed input evolution for the incremental-vs-full
	// equivalence axis; nil for non-click workloads (deltas mutate click
	// records, so only click-log inputs can evolve).
	Delta *onepass.Delta
}

// String renders the tuple compactly for failure reports.
func (t Tuple) String() string {
	c := t.Cfg
	s := fmt.Sprintf("seed=%d workload=%s input=%dKB nodes=%d cores=%d reducers=%d mem=%dKB block=%dKB chunk=%dKB fanin=%d buckets=%d hotkeys=%d ssd=%v",
		t.Seed, t.Workload.Name, t.Input>>10, c.Nodes, c.CoresPerNode, c.Reducers,
		c.MemoryPerTask>>10, c.BlockSize>>10, c.ChunkBytes>>10, c.FanIn,
		c.SpillBuckets, c.HotKeyCounters, c.SSDIntermediate)
	if t.Delta != nil {
		s += fmt.Sprintf(" delta=%.3f/seed=%d", t.Delta.DirtyFrac, t.Delta.Seed)
	}
	return s
}

// FuzzTuple derives a Tuple deterministically from seed. Ranges are chosen
// to stay inside every engine's valid envelope while still exercising the
// interesting regimes: memory budgets small enough to force spills, chunk
// sizes small enough to fragment pushes, reducer counts from one to well
// past the node count, and both disk classes for intermediate data.
func FuzzTuple(seed int64) Tuple {
	rng := rand.New(rand.NewSource(seed))
	cfg := onepass.DefaultConfig()
	// No SplitStorageCompute: with few nodes it can leave a single compute
	// node, and a chaos NodeFailure on it would make the run unsurvivable.
	cfg.Nodes = 3 + rng.Intn(6)                             // 3..8
	cfg.CoresPerNode = 1 + rng.Intn(4)                      // 1..4
	cfg.Reducers = 1 + rng.Intn(8)                          // 1..8
	cfg.MemoryPerTask = (256 + int64(rng.Intn(1793))) << 10 // 256KB..2MB
	cfg.BlockSize = (16 + int64(rng.Intn(113))) << 10       // 16..128KB
	cfg.ChunkBytes = (4 + int64(rng.Intn(61))) << 10        // 4..64KB
	cfg.FanIn = 2 + rng.Intn(7)                             // 2..8
	cfg.SpillBuckets = 2 + rng.Intn(15)                     // 2..16
	cfg.HotKeyCounters = 8 + rng.Intn(57)                   // 8..64
	cfg.SSDIntermediate = rng.Intn(2) == 1
	cfg.RetainOutput = true
	cfg.Audit = true

	input := (128 + int64(rng.Intn(385))) << 10 // 128KB..512KB

	cc := onepass.DefaultClickConfig()
	cc.Users = 200 + rng.Intn(400)
	cc.URLs = 100 + rng.Intn(300)
	dc := onepass.DefaultDocConfig()
	dc.Vocab = 2000 + rng.Intn(4000)

	// Every workload that can be asked for by name is in the draw, so a new
	// one gets the reference, delta and fault axes without an edit here.
	names := workloads.Names()
	w, err := workloads.ByName(names[rng.Intn(len(names))], cc, dc)
	if err != nil {
		panic(err)
	}
	t := Tuple{Seed: seed, Workload: w, Clicks: cc, Input: input, Cfg: cfg}
	// Delta draws come last, so every other field is drawn the same way
	// whichever workload the seed picked.
	if w.Clicks {
		d := onepass.DefaultDelta(cc, rng.Uint64(), 0.02+0.3*rng.Float64())
		t.Delta = &d
	}
	return t
}

// ReferenceBlocks regenerates exactly the blocks the DFS would register for
// this input (same sizing rule as dfs.RegisterStream), for the in-memory
// reference evaluation.
func ReferenceBlocks(w *onepass.Workload, input, blockSize int64) [][]byte {
	var blocks [][]byte
	for i := int64(0); i*blockSize < input; i++ {
		size := blockSize
		if rem := input - i*blockSize; rem < size {
			size = rem
		}
		blocks = append(blocks, w.Gen(int(i), size))
	}
	return blocks
}
