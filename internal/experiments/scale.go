// Package experiments regenerates every table and figure of the paper's
// evaluation at simulation scale. Each experiment runs the relevant
// engine/workload/topology combination, then reports the paper's number
// next to the measured one; cmd/experiments generates EXPERIMENTS.md from
// these reports.
package experiments

import (
	"fmt"

	"onepass/internal/gen"
	"onepass/internal/sim"
)

// GB is the unit the paper reports dataset sizes in.
const GB = float64(1 << 30)

// Scale maps the paper's dataset sizes onto simulation sizes.
type Scale struct {
	// Factor multiplies the paper's byte sizes (default 1/4000 — a 256 GB
	// dataset becomes 64 MB). Block size shrinks with the same spirit so
	// map-task counts stay "many waves per slot".
	Factor    float64
	BlockSize int64
	Nodes     int
	Reducers  int
	// SampleInterval is the metrics bucket width; it shrinks with the
	// makespan so figures keep enough buckets to show shape.
	SampleInterval sim.Duration
}

// DefaultScale returns the bench-friendly scale; cmd/experiments -scale
// sets a larger Factor for closer shape fidelity.
func DefaultScale() Scale {
	return Scale{Factor: 1.0 / 4000, BlockSize: 1 << 20, Nodes: 10, Reducers: 20,
		SampleInterval: 250 * sim.Millisecond}
}

// Bytes scales a paper size in GB to simulation bytes.
func (s Scale) Bytes(paperGB float64) int64 {
	b := int64(paperGB * GB * s.Factor)
	if b < s.BlockSize {
		b = s.BlockSize
	}
	return b
}

// TaskMemory scales the paper's per-task memory so the data:memory ratio a
// reducer experiences matches the testbed's. The paper configured a 1 GB
// JVM heap of which roughly a third is usable shuffle/merge buffer; the 60
// reducers each saw ~4.5 GB of sessionization data, i.e. data ≈ 14x buffer
// — enough to trigger multi-pass merging at F=10.
func (s Scale) TaskMemory() int64 {
	m := int64(0.30 * GB * s.Factor * 60.0 / float64(s.Reducers))
	if m < 8<<10 {
		m = 8 << 10
	}
	return m
}

// blockRatio is how our block size relates to the paper's 64 MB blocks;
// per-block entity counts (distinct users/URLs per block) scale with it so
// combiner effectiveness matches Table I.
func (s Scale) blockRatio() float64 {
	return float64(s.BlockSize) / float64(64<<20)
}

// paperWorkload holds one Table I row's published numbers.
type paperWorkload struct {
	Name          string
	InputGB       float64
	MapOutputGB   float64
	ReduceSpillGB float64
	OutputGB      float64
	MapTasks      int
	ReduceTasks   int
	CompletionMin float64
}

// clickCfg sizes the synthetic click log so distinct-users-per-block and
// distinct-URLs-per-block match the paper's 64 MB-block statistics at our
// block size — that ratio is what makes the combiner shrink per-user count
// to 1% of input and page frequency to 0.4% (Table I).
func (s Scale) clickCfg() gen.ClickConfig {
	cfg := gen.DefaultClickConfig()
	r := s.blockRatio()
	cfg.Users = clampInt(int(float64(cfg.Users)*r), 1000, cfg.Users)
	cfg.URLs = clampInt(int(float64(cfg.URLs)*r), 300, cfg.URLs)
	return cfg
}

func (s Scale) docCfg() gen.DocConfig {
	cfg := gen.DefaultDocConfig()
	cfg.Vocab = clampInt(int(float64(cfg.Vocab)*s.blockRatio()), 2000, cfg.Vocab)
	return cfg
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TableIWorkloads is the paper's Table I, row by row.
func (s Scale) TableIWorkloads() []paperWorkload {
	return []paperWorkload{
		{
			Name: "sessionization", InputGB: 256, MapOutputGB: 269, ReduceSpillGB: 370,
			OutputGB: 256, MapTasks: 3773, ReduceTasks: 60, CompletionMin: 76,
		},
		{
			Name: "page-frequency", InputGB: 508, MapOutputGB: 1.8, ReduceSpillGB: 0.2,
			OutputGB: 0.02, MapTasks: 7580, ReduceTasks: 60, CompletionMin: 40,
		},
		{
			Name: "per-user-count", InputGB: 256, MapOutputGB: 2.6, ReduceSpillGB: 1.4,
			OutputGB: 0.6, MapTasks: 3773, ReduceTasks: 60, CompletionMin: 24,
		},
		{
			Name: "inverted-index", InputGB: 427, MapOutputGB: 150, ReduceSpillGB: 150,
			OutputGB: 103, MapTasks: 6803, ReduceTasks: 60, CompletionMin: 118,
		},
	}
}

func pct(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }
