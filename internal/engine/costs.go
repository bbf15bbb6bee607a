package engine

import "onepass/internal/sim"

// CostModel converts real work done by the engines — records parsed, bytes
// moved through user code, key comparisons executed by real sorts and
// merges, hash-table operations — into virtual CPU time. The defaults are
// calibrated so stock-Hadoop sessionization reproduces the paper's Table II
// split (map fn ≈ 61% / sort ≈ 39% of map-phase CPU; per-user count ≈
// 52%/48%) at the 64 MB block size; see DESIGN.md §5.
type CostModel struct {
	// ParseNsPerByte is charged per input byte while iterating records of
	// line-oriented text (the regexp-ish field extraction path).
	ParseNsPerByte float64
	// BinaryParseNsPerByte is the cheap path for binary (SequenceFile-like)
	// input.
	BinaryParseNsPerByte float64
	// MapNsPerRecord is the map function body per record.
	MapNsPerRecord float64
	// MapNsPerOutputByte covers constructing and buffering emitted pairs.
	MapNsPerOutputByte float64
	// CompareNs is charged per key comparison counted by real sorts and
	// merges.
	CompareNs float64
	// HashNs is charged per hash-table operation (hash + probe) in the
	// hash engines and per partition decision in all engines.
	HashNs float64
	// CombineNsPerRecord is the combine function per input value.
	CombineNsPerRecord float64
	// ReduceNsPerRecord is the reduce function per input value.
	ReduceNsPerRecord float64
	// UpdateNsPerRecord is the incremental aggregator per value.
	UpdateNsPerRecord float64
	// SerializeNsPerByte covers encoding/decoding records at spill and
	// shuffle boundaries.
	SerializeNsPerByte float64
	// FrameworkNsPerRecord is the per-record runtime overhead outside user
	// code and sorting: deserialization, the collect path, object churn,
	// GC. It dominates real Hadoop map tasks (a 64 MB block took 21.6 s in
	// the paper while its map function + sort account for ~2.5 CPU-s). The
	// hash engine sets a lower value through its byte-array memory
	// management (§V), which is exactly the overhead that library exists
	// to remove.
	FrameworkNsPerRecord float64
}

// DefaultCosts returns the calibrated model.
func DefaultCosts() CostModel {
	return CostModel{
		ParseNsPerByte:       6.0,
		BinaryParseNsPerByte: 0.8,
		MapNsPerRecord:       90,
		MapNsPerOutputByte:   2.0,
		CompareNs:            15,
		HashNs:               25,
		CombineNsPerRecord:   40,
		ReduceNsPerRecord:    60,
		UpdateNsPerRecord:    45,
		SerializeNsPerByte:   0.5,
		FrameworkNsPerRecord: 5000,
	}
}

// Merged returns c's cost model with zero fields replaced by defaults, so
// workloads override only what they need.
func (c CostModel) Merged() CostModel {
	d := DefaultCosts()
	pick := func(v, def float64) float64 {
		if v == 0 {
			return def
		}
		return v
	}
	return CostModel{
		ParseNsPerByte:       pick(c.ParseNsPerByte, d.ParseNsPerByte),
		BinaryParseNsPerByte: pick(c.BinaryParseNsPerByte, d.BinaryParseNsPerByte),
		MapNsPerRecord:       pick(c.MapNsPerRecord, d.MapNsPerRecord),
		MapNsPerOutputByte:   pick(c.MapNsPerOutputByte, d.MapNsPerOutputByte),
		CompareNs:            pick(c.CompareNs, d.CompareNs),
		HashNs:               pick(c.HashNs, d.HashNs),
		CombineNsPerRecord:   pick(c.CombineNsPerRecord, d.CombineNsPerRecord),
		ReduceNsPerRecord:    pick(c.ReduceNsPerRecord, d.ReduceNsPerRecord),
		UpdateNsPerRecord:    pick(c.UpdateNsPerRecord, d.UpdateNsPerRecord),
		SerializeNsPerByte:   pick(c.SerializeNsPerByte, d.SerializeNsPerByte),
		FrameworkNsPerRecord: pick(c.FrameworkNsPerRecord, d.FrameworkNsPerRecord),
	}
}

// Dur converts n work units at nsPerUnit into a virtual duration.
func Dur(n float64, nsPerUnit float64) sim.Duration {
	return sim.Duration(n * nsPerUnit)
}
