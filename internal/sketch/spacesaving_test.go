package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExactWhenUnderCapacity(t *testing.T) {
	s := NewSpaceSaving(10)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			s.Offer([]byte(fmt.Sprintf("k%d", i)), 1)
		}
	}
	for i := 0; i < 5; i++ {
		c, e, ok := s.Estimate([]byte(fmt.Sprintf("k%d", i)))
		if !ok || c != uint64(i+1) || e != 0 {
			t.Fatalf("k%d: c=%d e=%d ok=%v", i, c, e, ok)
		}
	}
	if len(s.counters) != 5 || s.N() != 15 {
		t.Fatalf("tracked=%d n=%d", len(s.counters), s.N())
	}
}

func TestEvictionTracksNewcomer(t *testing.T) {
	s := NewSpaceSaving(2)
	s.Offer([]byte("a"), 5)
	s.Offer([]byte("b"), 3)
	s.Offer([]byte("c"), 1) // evicts b (min), inherits err=3
	c, e, ok := s.Estimate([]byte("c"))
	if !ok || c != 4 || e != 3 {
		t.Fatalf("c: count=%d err=%d ok=%v", c, e, ok)
	}
	if _, _, ok := s.Estimate([]byte("b")); ok {
		t.Fatal("b should be evicted")
	}
}

// The evicted counter is the minimum under (count, then key bytes): on a
// count tie the smaller key goes, whether the keys differ inside the 8-byte
// prefix, past it, or only in length.
func TestEvictionTieBreaksOnKey(t *testing.T) {
	for _, c := range []struct{ small, large string }{
		{"aa", "zz"},
		{"shared-prefix-1", "shared-prefix-2"}, // tie on the prefix
		{"a", "a\x00"},                         // tie on the zero-padded prefix
		{"abcdefgh", "abcdefgh\x00"},           // one key is exactly the prefix
		{"", "\x00"},
	} {
		s := NewSpaceSaving(2)
		s.Offer([]byte(c.large), 2)
		s.Offer([]byte(c.small), 2)
		s.Offer([]byte("newcomer"), 1)
		if _, _, ok := s.Estimate([]byte(c.small)); ok {
			t.Errorf("%q vs %q: the smaller key survived", c.small, c.large)
		}
		if got, _, ok := s.Estimate([]byte(c.large)); !ok || got != 2 {
			t.Errorf("%q vs %q: the larger key = %d,%v, want 2,true", c.small, c.large, got, ok)
		}
	}
}

func TestZeroWeightIgnored(t *testing.T) {
	s := NewSpaceSaving(2)
	s.Offer([]byte("a"), 0)
	if s.N() != 0 || len(s.counters) != 0 {
		t.Fatal("zero weight must be a no-op")
	}
}

func TestHeavyHitterAlwaysTracked(t *testing.T) {
	// A key with frequency > N/k must be tracked regardless of stream order.
	rng := rand.New(rand.NewSource(42))
	s := NewSpaceSaving(20)
	const total = 20000
	hot := 0
	for i := 0; i < total; i++ {
		if rng.Float64() < 0.10 { // hot key: ~10% > 1/20 = 5%
			s.Offer([]byte("HOT"), 1)
			hot++
		} else {
			s.Offer([]byte(fmt.Sprintf("cold-%d", rng.Intn(5000))), 1)
		}
	}
	c, e, ok := s.Estimate([]byte("HOT"))
	if !ok {
		t.Fatal("heavy hitter lost")
	}
	if c < uint64(hot) {
		t.Fatalf("estimate %d below true count %d", c, hot)
	}
	if c-e > uint64(hot) {
		t.Fatalf("lower bound %d above true count %d", c-e, hot)
	}
}

func TestInvalidKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSpaceSaving(0)
}

// Property (the SpaceSaving guarantees): for any stream, (1) every tracked
// estimate bounds its true count from above, (2) estimate - err bounds it
// from below, and (3) any key with true count > N/k is tracked.
func TestSpaceSavingGuaranteesProperty(t *testing.T) {
	f := func(stream []uint8, k uint8) bool {
		kk := int(k%16) + 2
		s := NewSpaceSaving(kk)
		truth := map[string]uint64{}
		for _, b := range stream {
			key := fmt.Sprintf("k%d", b%32)
			s.Offer([]byte(key), 1)
			truth[key]++
		}
		n := uint64(len(stream))
		for key, trueCount := range truth {
			est, errB, tracked := s.Estimate([]byte(key))
			if tracked {
				if est < trueCount {
					return false // estimate must not undercount
				}
				if est-errB > trueCount {
					return false // lower bound must hold
				}
			} else if trueCount > n/uint64(kk) {
				return false // heavy hitters must be tracked
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// offer is one Offer call of a stream.
type offer struct {
	key    []byte
	weight uint64
}

// checkAgainstReference offers stream to a k-counter SpaceSaving and to the
// former map-based sketch side by side, and fails on the first difference:
// Tracked, N, the Estimate of the key just offered and of an earlier one,
// or the key each would evict next; at the end, the Estimate of every key
// offered. After every offer the flat layout's own invariants must hold.
func checkAgainstReference(t *testing.T, k int, stream []offer) {
	t.Helper()
	s, ref := NewSpaceSaving(k), newRefSpaceSaving(k)
	same := func(i int, key []byte) {
		t.Helper()
		c, e, ok := s.Estimate(key)
		rc, re, rok := ref.Estimate(key)
		if c != rc || e != re || ok != rok {
			t.Fatalf("k=%d offer %d: Estimate(%q) = %d,%d,%v, reference %d,%d,%v", k, i, key, c, e, ok, rc, re, rok)
		}
	}
	for i, o := range stream {
		s.Offer(o.key, o.weight)
		ref.Offer(o.key, o.weight)
		if len(s.counters) != ref.Tracked() || s.N() != ref.N() {
			t.Fatalf("k=%d offer %d: Tracked, N = %d, %d, reference %d, %d", k, i, len(s.counters), s.N(), ref.Tracked(), ref.N())
		}
		same(i, o.key)
		same(i, stream[i/2].key)
		if ref.Tracked() > 0 {
			if got, want := keyOf(s, s.heap[0]), ref.heap[0].key; string(got) != want {
				t.Fatalf("k=%d offer %d: next victim %q, reference %q", k, i, got, want)
			}
		}
		checkLayout(t, s, i)
	}
	for i, o := range stream {
		same(i, o.key)
	}
}

// keyOf rebuilds counter id's key from its prefix and its slab suffix.
func keyOf(s *SpaceSaving, id int32) []byte {
	c := &s.counters[id]
	var p [prefixLen]byte
	for i := range p {
		p[i] = byte(c.prefix >> (56 - 8*i))
	}
	return append(p[:min(int(c.klen), prefixLen)], s.suffix(id)...)
}

// checkLayout fails unless the heap, the index and the slab are consistent:
// every heap position's counter records it and sorts no lower than its
// parent; every counter is found through the index under its own key's hash
// and the index holds nothing else; the slab regions are disjoint, hold their
// suffixes, and with the dead bytes add up to the slab; compact keeps the
// dead bytes below the live ones or the number of counters.
func checkLayout(t *testing.T, s *SpaceSaving, op int) {
	t.Helper()
	if len(s.heap) != len(s.counters) || len(s.regions) != len(s.counters) {
		t.Fatalf("offer %d: %d heap ids and %d regions for %d counters", op, len(s.heap), len(s.regions), len(s.counters))
	}
	for i, id := range s.heap {
		if s.counters[id].pos != int32(i) {
			t.Fatalf("offer %d: counter %d at heap position %d records %d", op, id, i, s.counters[id].pos)
		}
		if p := (i - 1) / 2; i > 0 && s.less(id, s.heap[p]) {
			t.Fatalf("offer %d: heap position %d sorts below its parent", op, i)
		}
	}
	used := 0
	for _, v := range s.index {
		if v != 0 {
			used++
		}
	}
	if used != len(s.counters) || 2*used > len(s.index) {
		t.Fatalf("offer %d: index holds %d of %d slots for %d counters", op, used, len(s.index), len(s.counters))
	}
	owned := make([]bool, len(s.slab))
	live := 0
	for id, r := range s.regions {
		key := keyOf(s, int32(id))
		if got, ok := s.find(hashOf(prefixOf(key), len(key), tailOf(key)), prefixOf(key), key); !ok || got != int32(id) {
			t.Fatalf("offer %d: counter %d (%q) found as %d,%v", op, id, key, got, ok)
		}
		if n := len(tailOf(key)); n > int(r.kcap) {
			t.Fatalf("offer %d: counter %d's %d-byte suffix overflows its %d-byte region", op, id, n, r.kcap)
		}
		for b := r.off; b < r.off+r.kcap; b++ {
			if owned[b] {
				t.Fatalf("offer %d: counter %d's region [%d,%d) overlaps another", op, id, r.off, r.off+r.kcap)
			}
			owned[b] = true
		}
		live += int(r.kcap)
	}
	if live+s.dead != len(s.slab) {
		t.Fatalf("offer %d: %d live + %d dead bytes in a %d-byte slab", op, live, s.dead, len(s.slab))
	}
	if s.dead > 0 && s.dead >= max(len(s.counters), live) {
		t.Fatalf("offer %d: %d dead slab bytes against %d live and %d counters", op, s.dead, live, len(s.counters))
	}
}

// streamKey maps a Zipf rank to a key. The families cover the ways two keys
// can compare: the workloads' short user and word keys, long keys that tie
// on their prefix (and, being of many lengths, leave dead slab bytes when
// one replaces another), and keys that are prefixes of one another or differ
// only by trailing zero bytes, on both sides of the 8-byte prefix.
func streamKey(r uint64) []byte {
	switch r % 6 {
	case 0:
		return fmt.Appendf(nil, "u%d", r)
	case 1:
		return fmt.Appendf(nil, "w%d", r)
	case 2:
		return fmt.Appendf(nil, "shared-prefix-%d", r)
	case 3:
		return fmt.Appendf(nil, "long-%s%d", bytes.Repeat([]byte{'z'}, int(r/6)%40), r)
	case 4:
		return bytes.Repeat([]byte{'a'}, 1+int(r/6)%12)
	default:
		return append([]byte{'x'}, make([]byte, int(r/6)%11)...)
	}
}

// Property: over seeded Zipf streams, any k and weights 0 to 4, SpaceSaving
// is indistinguishable from the former map-based sketch, next victim
// included.
func TestSpaceSavingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 60; round++ {
		k := 1 + rng.Intn(300)
		zipf := rand.NewZipf(rng, 1.05+rng.Float64(), 1, uint64(50+rng.Intn(3000)))
		stream := make([]offer, 500+rng.Intn(3000))
		for i := range stream {
			stream[i] = offer{streamKey(zipf.Uint64()), uint64(rng.Intn(5))}
		}
		checkAgainstReference(t, k, stream)
	}
}

// decodeStream reads a fuzz input: the first byte picks k, then each offer is
// a header byte — weight in header%5, key length in header/5%13 — followed
// by the key's bytes.
func decodeStream(data []byte) (int, []offer) {
	if len(data) == 0 {
		return 1, nil
	}
	k := 1 + int(data[0])%40
	var stream []offer
	for i := 1; i < len(data); {
		h := data[i]
		i++
		n := min(int(h/5)%13, len(data)-i)
		stream = append(stream, offer{data[i : i+n], uint64(h % 5)})
		i += n
	}
	return k, stream
}

// encodeStream is decodeStream's inverse, for the seed corpus.
func encodeStream(k int, stream []offer) []byte {
	out := []byte{byte(k - 1)}
	for _, o := range stream {
		out = append(out, byte(5*len(o.key)+int(o.weight)))
		out = append(out, o.key...)
	}
	return out
}

func FuzzSpaceSavingMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 200)
	var stream []offer
	for i := 0; i < 400; i++ {
		stream = append(stream, offer{streamKey(zipf.Uint64()), uint64(1 + rng.Intn(4))})
	}
	f.Add(encodeStream(8, stream))
	f.Add(encodeStream(2, []offer{{[]byte("zz"), 2}, {[]byte("aa"), 2}, {[]byte("c"), 1}}))
	f.Add(encodeStream(3, []offer{{[]byte("abcdefgh"), 1}, {[]byte("abcdefgh\x00"), 1}, {[]byte("abcdefg"), 1}, {nil, 1}, {[]byte("abcdefghijkl"), 1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8192 {
			data = data[:8192]
		}
		k, stream := decodeStream(data)
		checkAgainstReference(t, k, stream)
	})
}
