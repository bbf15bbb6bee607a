package metrics

import (
	"encoding/json"
	"math"
	"math/bits"
	"sort"
)

// Histogram is a mergeable log-bucketed histogram of non-negative int64
// values (virtual-time durations in nanoseconds, byte counts, queue waits).
// It is the latency machinery behind the run profiler's per-phase skew
// statistics and the p50/p95/p99 reporting a multi-tenant job service needs:
// per-tenant histograms recorded independently and merged at read time must
// give the same answer as one histogram fed everything, so Merge is exact,
// associative, and commutative (integer bucket counts and sums — no float
// accumulation order to drift).
//
// Bucketing is HDR-style: values below 1<<subBits land in singleton buckets
// (exact), larger values in log2 major buckets split into 1<<(subBits-1)
// linear sub-buckets, bounding relative quantile error at 2^-(subBits-1)
// (~1.6% at subBits=6). Count, Sum, Min, and Max are tracked exactly, so
// Max (and any quantile that resolves to the min or max) is exact for every
// distribution, and all quantiles are exact for values under 1<<subBits or
// with at most subBits significant bits (the determinism oracle the tests
// pin). Quantiles return the lowest value of the resolved bucket — a
// deterministic representative, never an interpolation.
//
// The zero value is NOT ready; use NewHistogram. Determinism: all iteration
// is over sorted bucket indices, so JSON bytes and quantiles are pure
// functions of the recorded multiset.
type Histogram struct {
	count int64
	sum   int64
	min   int64 // valid only when count > 0
	max   int64
	// buckets maps bucket index -> count. Sparse: runs record a handful of
	// distinct phases, not the full index space.
	buckets map[int]int64
}

// subBits fixes the histogram resolution: 64 singleton buckets, then 32
// linear sub-buckets per power of two (max relative error 1/32).
const subBits = 6

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make(map[int]int64)}
}

// bucketOf maps a value to its bucket index. Negative values clamp to 0
// (durations cannot be negative; clamping keeps Record total).
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // e >= subBits
	shift := e - subBits + 1       // >= 1
	// v>>shift is in [1<<(subBits-1), 1<<subBits); indices are contiguous:
	// shift s covers [s<<(subBits-1) + 1<<(subBits-1), s<<(subBits-1) + 1<<subBits).
	return shift<<(subBits-1) + int(uint64(v)>>uint(shift))
}

// bucketLow returns the lowest value mapping to bucket index idx — the
// deterministic representative quantiles report.
func bucketLow(idx int) int64 {
	if idx < 1<<subBits {
		return int64(idx)
	}
	shift := idx>>(subBits-1) - 1
	sub := idx - shift<<(subBits-1)
	return int64(sub) << uint(shift)
}

// Record adds one occurrence of v.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n occurrences of v. n <= 0 is a no-op.
func (h *Histogram) RecordN(v int64, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * n
	h.buckets[bucketOf(v)] += n
}

// Merge folds other into h. Exact: bucket counts, sums, and extrema combine
// with integer arithmetic, so (a merge b) merge c == a merge (b merge c) and
// a merge b == b merge a, byte-for-byte in the JSON encoding.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for idx, n := range other.buckets {
		h.buckets[idx] += n
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count }

// Min returns the exact smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// sortedIndices returns the occupied bucket indices in ascending order.
func (h *Histogram) sortedIndices() []int {
	idxs := make([]int, 0, len(h.buckets))
	for idx := range h.buckets {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs
}

// Quantile returns the value at quantile q in [0,1]: the lowest value of the
// bucket containing rank ceil(q*count), clamped so Quantile(0) == Min() and
// Quantile(1) == Max() exactly. A NaN q reports Min — NaN fails both clamp
// comparisons, and int64(math.Ceil(NaN * count)) is platform-undefined.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 || math.IsNaN(q) {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.count {
		return h.max
	}
	var cum int64
	idxs := h.sortedIndices()
	for _, idx := range idxs {
		cum += h.buckets[idx]
		if cum >= rank {
			v := bucketLow(idx)
			// The lowest occupied bucket cannot report below the exact min,
			// nor any bucket above the exact max.
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50, P95, P99 are the profiler's standard quantile shorthands.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }

// P95 returns the 95th percentile.
func (h *Histogram) P95() int64 { return h.Quantile(0.95) }

// P99 returns the 99th percentile.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// histogramJSON is the encoded form: sparse [index, count] pairs in
// ascending index order, so encoding is deterministic.
type histogramJSON struct {
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets"`
}

// MarshalJSON encodes the histogram deterministically.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	hj := histogramJSON{Count: h.count, Sum: h.sum, Min: h.Min(), Max: h.max,
		Buckets: make([][2]int64, 0, len(h.buckets))}
	for _, idx := range h.sortedIndices() {
		hj.Buckets = append(hj.Buckets, [2]int64{int64(idx), h.buckets[idx]})
	}
	return json.Marshal(hj)
}
