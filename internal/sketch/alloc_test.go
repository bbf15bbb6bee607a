package sketch

import (
	"fmt"
	"testing"
)

// Allocation budget for the sketch hit path: the hot-key engine calls Offer
// once per shuffled record, and almost every call in a skewed stream hits an
// already-tracked key. That path must not allocate.

func TestAllocBudgetOfferHit(t *testing.T) {
	s := NewSpaceSaving(64)
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("hot-%03d", i))
		s.Offer(keys[i], 1)
	}
	avg := testing.AllocsPerRun(1000, func() {
		for _, k := range keys {
			s.Offer(k, 1)
		}
	})
	if avg != 0 {
		t.Fatalf("tracked-key Offer allocates %.1f/op, budget 0", avg)
	}
}

// A full sketch evicts on every Offer of an untracked key, and an evicting
// Offer must not allocate either once the sketch is warm: the newcomer takes
// over the victim's counter and, when its key fits, the victim's slab region,
// and compaction copies into the slab it swapped out last time. The keys are
// short (held in the counter) and of two longer lengths (held in the slab,
// one outgrowing the other's region).
func TestAllocBudgetOfferEvict(t *testing.T) {
	s := NewSpaceSaving(64)
	keys := make([][]byte, 300)
	for i := range keys {
		switch i % 3 {
		case 0:
			keys[i] = []byte(fmt.Sprintf("u%d", i))
		case 1:
			keys[i] = []byte(fmt.Sprintf("cold-key-%04d", i))
		default:
			keys[i] = []byte(fmt.Sprintf("colder-key-%06d", i))
		}
	}
	offerAll := func() {
		for _, k := range keys {
			s.Offer(k, 1)
		}
	}
	for i := 0; i < 50; i++ {
		offerAll()
	}
	if avg := testing.AllocsPerRun(100, offerAll); avg != 0 {
		t.Fatalf("evicting Offer allocates %.1f per pass of %d keys, budget 0", avg, len(keys))
	}
}

func TestAllocBudgetEstimate(t *testing.T) {
	s := NewSpaceSaving(64)
	key := []byte("hot-000")
	s.Offer(key, 3)
	avg := testing.AllocsPerRun(1000, func() {
		if _, _, ok := s.Estimate(key); !ok {
			t.Fatal("key lost")
		}
	})
	if avg != 0 {
		t.Fatalf("Estimate allocates %.1f/op, budget 0", avg)
	}
}
