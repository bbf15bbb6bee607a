package hashlib

import "testing"

// Allocation budget for the benchmarks in bench_test.go, on their own keys:
// every hash engine hashes once per record, and hashing allocates nothing.
func TestAllocBudgetHash(t *testing.T) {
	h := NewFamily(1).New()
	key16, key64 := []byte("user-123456-page"), make([]byte, 64)
	short, bucket := shortKeys(), bucketKeys()
	i := 0
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Hash16B", func() { hashSink += h.Hash(key16) }},
		{"Hash64B", func() { hashSink += h.Hash(key64) }},
		{"HashShortKeys", func() {
			for _, k := range short {
				hashSink += h.Hash(k)
			}
		}},
		{"Bucket", func() { i++; _ = h.Bucket(bucket[i&63], 60) }},
	} {
		if avg := testing.AllocsPerRun(1000, op.f); avg != 0 {
			t.Errorf("%s allocates %.1f/op, budget 0", op.name, avg)
		}
	}
}
