package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func histJSON(t *testing.T, h *Histogram) string {
	t.Helper()
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestHistogramQuantileExactSmall pins exactness on the singleton-bucket
// range: every value below 1<<subBits is its own bucket, so quantiles are
// exact order statistics (lowest value at rank ceil(q*n)).
func TestHistogramQuantileExactSmall(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 50; v++ {
		h.Record(v)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 1}, {0.5, 25}, {0.95, 48}, {0.99, 50}, {1, 50},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if h.Min() != 1 || h.Max() != 50 || h.Count() != 50 || h.sum != 50*51/2 {
		t.Errorf("stats: min=%d max=%d count=%d sum=%d", h.Min(), h.Max(), h.Count(), h.sum)
	}
}

// TestHistogramQuantileExactRepresentable pins exactness for large values
// with at most subBits significant bits — bucket lows land exactly on the
// recorded values.
func TestHistogramQuantileExactRepresentable(t *testing.T) {
	h := NewHistogram()
	// 100 values across four magnitudes, each with a single significant bit
	// (2^20ns ≈ 1.05ms), so every value is its bucket's lower bound.
	u := int64(1) << 20
	h.RecordN(u, 50)
	h.RecordN(4*u, 45)
	h.RecordN(32*u, 4)
	h.RecordN(1<<40, 1)
	if got := h.P50(); got != u {
		t.Errorf("p50 = %d, want %d", got, u)
	}
	if got := h.P95(); got != 4*u {
		t.Errorf("p95 = %d, want %d", got, 4*u)
	}
	if got := h.P99(); got != 32*u {
		t.Errorf("p99 = %d, want %d", got, 32*u)
	}
	if got := h.Max(); got != 1<<40 {
		t.Errorf("max = %d, want %d", got, int64(1)<<40)
	}
}

// TestHistogramQuantileErrorBound checks the log-bucket error contract on an
// adversarial distribution: every reported quantile is within 1/32 relative
// error of the exact order statistic, and never above it.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	vals := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		rank := int64(math.Ceil(q * float64(len(vals)))) // same rank rule as Quantile
		exact := vals[rank-1]
		got := h.Quantile(q)
		if got > exact {
			t.Errorf("q=%v: reported %d above exact %d", q, got, exact)
		}
		if float64(exact-got) > float64(exact)/32+1 {
			t.Errorf("q=%v: reported %d vs exact %d exceeds 1/32 relative error", q, got, exact)
		}
	}
}

// TestHistogramMergeAssociativeCommutative merges three random histograms in
// every grouping and order; all must serialize byte-identically, and match a
// histogram fed every value directly.
func TestHistogramMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	parts := make([]*Histogram, 3)
	all := NewHistogram()
	for i := range parts {
		parts[i] = NewHistogram()
		for j := 0; j < 500+i*100; j++ {
			v := rng.Int63n(1 << 35)
			parts[i].Record(v)
			all.Record(v)
		}
	}
	clone := func(h *Histogram) *Histogram {
		out := NewHistogram()
		out.Merge(h)
		return out
	}
	// (a+b)+c
	abc := clone(parts[0])
	abc.Merge(parts[1])
	abc.Merge(parts[2])
	// a+(b+c)
	bc := clone(parts[1])
	bc.Merge(parts[2])
	aBC := clone(parts[0])
	aBC.Merge(bc)
	// c+b+a
	cba := clone(parts[2])
	cba.Merge(parts[1])
	cba.Merge(parts[0])

	want := histJSON(t, all)
	for name, h := range map[string]*Histogram{"(a+b)+c": abc, "a+(b+c)": aBC, "c+b+a": cba} {
		if got := histJSON(t, h); got != want {
			t.Errorf("%s serialization diverges from direct recording:\n got %s\nwant %s", name, got, want)
		}
	}
	// Merging an empty histogram is the identity.
	withEmpty := clone(all)
	withEmpty.Merge(NewHistogram())
	if got := histJSON(t, withEmpty); got != want {
		t.Errorf("merge with empty changed encoding")
	}
}

// TestHistogramJSONEncoding reads an encoded histogram through its plain
// form: the header matches the histogram, and the sparse buckets are in
// ascending index order with positive counts summing to the header's count.
func TestHistogramJSONEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := NewHistogram()
	for i := 0; i < 2000; i++ {
		h.Record(rng.Int63n(1 << 44))
	}
	var hj histogramJSON
	if err := json.Unmarshal([]byte(histJSON(t, h)), &hj); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if hj.Count != h.Count() || hj.Min != h.Min() || hj.Max != h.max || hj.Sum != h.sum {
		t.Fatalf("header %+v does not match the histogram", hj)
	}
	var total int64
	for i, p := range hj.Buckets {
		if p[1] <= 0 || (i > 0 && p[0] <= hj.Buckets[i-1][0]) || h.buckets[int(p[0])] != p[1] {
			t.Fatalf("bucket %d = %v: want ascending indices and the histogram's positive counts", i, p)
		}
		total += p[1]
	}
	if total != hj.Count || len(hj.Buckets) != len(h.buckets) {
		t.Fatalf("%d buckets sum to %d, want %d buckets summing to %d", len(hj.Buckets), total, len(h.buckets), hj.Count)
	}
}

// TestHistogramBucketScheme pins the bucket math: contiguous indices across
// the singleton/log boundary and bucketLow inverting bucketOf on bucket
// lower bounds.
func TestHistogramBucketScheme(t *testing.T) {
	prev := -1
	for v := int64(0); v < 4096; v++ {
		idx := bucketOf(v)
		if idx != prev && idx != prev+1 {
			t.Fatalf("bucketOf(%d) = %d, previous index %d: not contiguous", v, idx, prev)
		}
		prev = idx
		if low := bucketLow(idx); low > v || bucketOf(low) != idx {
			t.Fatalf("bucketLow(%d) = %d not a lower bound for v=%d", idx, low, v)
		}
	}
	if bucketOf(-5) != 0 {
		t.Errorf("negative values must clamp to bucket 0")
	}
}

// TestHistogramQuantileNaN pins the NaN guard: NaN fails both clamp
// comparisons (q <= 0 and q >= 1 are false), and without the explicit check
// the rank computation hits int64(math.Ceil(NaN*count)), whose result is
// platform-undefined. NaN q must deterministically report Min.
func TestHistogramQuantileNaN(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{3, 17, 290, 4096} {
		h.Record(v)
	}
	if got := h.Quantile(math.NaN()); got != h.Min() {
		t.Errorf("Quantile(NaN) = %d, want Min() = %d", got, h.Min())
	}
	empty := NewHistogram()
	if got := empty.Quantile(math.NaN()); got != 0 {
		t.Errorf("empty Quantile(NaN) = %d, want 0", got)
	}
	// Infinities were already handled by the clamps; pin that too.
	if got := h.Quantile(math.Inf(1)); got != h.Max() {
		t.Errorf("Quantile(+Inf) = %d, want Max() = %d", got, h.Max())
	}
	if got := h.Quantile(math.Inf(-1)); got != h.Min() {
		t.Errorf("Quantile(-Inf) = %d, want Min() = %d", got, h.Min())
	}
}

// TestHistogramEmpty pins zero-value-ish behaviour.
func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram must report zeros")
	}
}
