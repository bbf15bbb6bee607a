package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendPair(buf, []byte("key1"), []byte("value-one"))
	buf = AppendPair(buf, []byte(""), []byte("empty-key"))
	buf = AppendPair(buf, []byte("k3"), nil)
	d := NewDecoder(buf)
	k, v, ok := d.Next()
	if !ok || string(k) != "key1" || string(v) != "value-one" {
		t.Fatalf("pair 1 = %q %q %v", k, v, ok)
	}
	k, v, ok = d.Next()
	if !ok || len(k) != 0 || string(v) != "empty-key" {
		t.Fatalf("pair 2 = %q %q %v", k, v, ok)
	}
	k, v, ok = d.Next()
	if !ok || string(k) != "k3" || len(v) != 0 {
		t.Fatalf("pair 3 = %q %q %v", k, v, ok)
	}
	if _, _, ok = d.Next(); ok {
		t.Fatal("decoder must end")
	}
	if d.off != len(d.buf) {
		t.Fatalf("%d bytes undecoded", len(d.buf)-d.off)
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	key, val := []byte("some-key"), bytes.Repeat([]byte("v"), 300)
	var buf []byte
	buf = AppendPair(buf, key, val)
	if EncodedSize(key, val) != len(buf) {
		t.Fatalf("EncodedSize = %d, encoded = %d", EncodedSize(key, val), len(buf))
	}
}

func TestAppendTaggedPairMatchesAppendPair(t *testing.T) {
	for _, n := range []int{0, 1, 126, 127, 128, 300} {
		key, payload := []byte("k"), bytes.Repeat([]byte("p"), n)
		want := AppendPair([]byte("x"), key, append([]byte{7}, payload...))
		if got := AppendTaggedPair([]byte("x"), key, 7, payload); !bytes.Equal(got, want) {
			t.Fatalf("payload of %d bytes: got %q, want %q", n, got, want)
		}
	}
}

func TestDecodePairPartialInput(t *testing.T) {
	var buf []byte
	buf = AppendPair(buf, []byte("abcdef"), []byte("0123456789"))
	for cut := 0; cut < len(buf); cut++ {
		if _, _, n := DecodePair(buf[:cut]); n != 0 {
			t.Fatalf("partial buffer of %d bytes decoded n=%d", cut, n)
		}
	}
	if _, _, n := DecodePair(buf); n != len(buf) {
		t.Fatalf("full decode n=%d want %d", n, len(buf))
	}
}

// TestDecodePairOversizedLengths: a length field too large for the buffer —
// up to one that overflows int when added to the offsets — is an incomplete
// pair, not a slice with a negative bound (found by incr's FuzzBlockFrames).
func TestDecodePairOversizedLengths(t *testing.T) {
	for _, lens := range [][2]uint64{
		{1, 1<<63 - 1}, {1<<63 - 1, 1}, {1<<63 - 1, 1<<63 - 1}, {1 << 63, 0}, {0, 1<<64 - 1}, {3, 1<<64 - 2},
	} {
		buf := binary.AppendUvarint(nil, lens[0])
		buf = binary.AppendUvarint(buf, lens[1])
		buf = append(buf, "key and value bytes"...)
		if _, _, n := DecodePair(buf); n != 0 {
			t.Fatalf("lengths %d/%d over %d bytes decoded n=%d", lens[0], lens[1], len(buf), n)
		}
	}
}

func TestCompareCounts(t *testing.T) {
	var c int64
	if Compare([]byte("a"), []byte("b"), &c) >= 0 {
		t.Fatal("a < b")
	}
	if Compare([]byte("b"), []byte("a"), &c) <= 0 {
		t.Fatal("b > a")
	}
	if Compare([]byte("x"), []byte("x"), &c) != 0 {
		t.Fatal("x == x")
	}
	if c != 3 {
		t.Fatalf("counter = %d, want 3", c)
	}
	Compare([]byte("x"), []byte("y"), nil) // nil counter must not panic
}

func TestBufferAddAndAccess(t *testing.T) {
	b := NewBuffer(0)
	b.Add(1, []byte("k1"), []byte("v1"))
	b.Add(0, []byte("k0"), []byte("v0"))
	if b.Len() != 2 || b.Bytes() != 8 {
		t.Fatalf("len=%d bytes=%d", b.Len(), b.Bytes())
	}
	if string(b.Key(0)) != "k1" || string(b.Val(1)) != "v0" || b.Partition(0) != 1 {
		t.Fatal("accessors broken")
	}
	b.Reset()
	if b.Len() != 0 || b.Bytes() != 0 {
		t.Fatal("reset failed")
	}
}

func TestBufferSortByPartitionKey(t *testing.T) {
	b := NewBuffer(0)
	b.Add(1, []byte("b"), []byte("3"))
	b.Add(0, []byte("z"), []byte("2"))
	b.Add(1, []byte("a"), []byte("4"))
	b.Add(0, []byte("a"), []byte("1"))
	var cmps int64
	b.SortByPartitionKey(&cmps)
	var got []string
	for i := 0; i < b.Len(); i++ {
		got = append(got, fmt.Sprintf("%d/%s=%s", b.Partition(i), b.Key(i), b.Val(i)))
	}
	want := []string{"0/a=1", "0/z=2", "1/a=4", "1/b=3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted = %v", got)
	}
	if cmps == 0 {
		t.Fatal("comparisons must be counted")
	}
}

func TestBufferSortStableForEqualKeys(t *testing.T) {
	b := NewBuffer(0)
	b.Add(0, []byte("k"), []byte("first"))
	b.Add(0, []byte("k"), []byte("second"))
	b.SortByPartitionKey(nil)
	if string(b.Val(0)) != "first" || string(b.Val(1)) != "second" {
		t.Fatal("sort must be stable")
	}
}

func TestSliceStream(t *testing.T) {
	enc := AppendPair(nil, []byte("a"), []byte("1"))
	enc = AppendPair(enc, []byte("b"), []byte("2"))
	s := NewSliceStream(enc)
	k, v, ok := s.Peek()
	if !ok || string(k) != "a" || string(v) != "1" {
		t.Fatalf("peek = %q %q %v", k, v, ok)
	}
	// Peek must be idempotent.
	k2, _, _ := s.Peek()
	if string(k2) != "a" {
		t.Fatal("second peek differs")
	}
	s.Advance()
	k, _, _ = s.Peek()
	if string(k) != "b" {
		t.Fatalf("after advance = %q", k)
	}
	s.Advance()
	if _, _, ok := s.Peek(); ok {
		t.Fatal("stream must end")
	}
}

func encodeSorted(pairs map[string]string) []byte {
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = AppendPair(out, []byte(k), []byte(pairs[k]))
	}
	return out
}

func TestMergeStreamsProducesSortedUnion(t *testing.T) {
	a := encodeSorted(map[string]string{"apple": "1", "mango": "2", "zebra": "3"})
	b := encodeSorted(map[string]string{"banana": "4", "mango": "5"})
	c := encodeSorted(map[string]string{})
	var cmps int64
	var got []string
	MergeStreams([]PairStream{NewSliceStream(a), NewSliceStream(b), NewSliceStream(c)}, &cmps,
		func(k, v []byte) { got = append(got, fmt.Sprintf("%s=%s", k, v)) })
	want := []string{"apple=1", "banana=4", "mango=2", "mango=5", "zebra=3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %v", got)
	}
	if cmps == 0 {
		t.Fatal("merge comparisons must be counted")
	}
}

func TestMergeStreamsEmptyInput(t *testing.T) {
	called := false
	MergeStreams(nil, nil, func(k, v []byte) { called = true })
	if called {
		t.Fatal("no emit for no streams")
	}
}

// groupStream feeds a sorted stream through g, as the reduce side does.
func groupStream(g *Grouper, s PairStream, fn func(key []byte, vals [][]byte)) {
	MergeStreams([]PairStream{s}, nil, func(k, v []byte) { g.Add(k, v, nil, fn) })
	g.Flush(fn)
}

func TestGrouperGroupsConsecutiveKeys(t *testing.T) {
	var buf []byte
	buf = AppendPair(buf, []byte("a"), []byte("1"))
	buf = AppendPair(buf, []byte("a"), []byte("2"))
	buf = AppendPair(buf, []byte("b"), []byte("3"))
	groups := map[string][]string{}
	groupStream(&Grouper{}, NewSliceStream(buf), func(k []byte, vals [][]byte) {
		var vs []string
		for _, v := range vals {
			vs = append(vs, string(v))
		}
		groups[string(k)] = vs
	})
	if !reflect.DeepEqual(groups["a"], []string{"1", "2"}) || !reflect.DeepEqual(groups["b"], []string{"3"}) {
		t.Fatalf("groups = %v", groups)
	}
}

func TestGrouperEmptyStream(t *testing.T) {
	groupStream(&Grouper{}, NewSliceStream(nil), func(k []byte, vals [][]byte) {
		t.Fatal("no groups expected")
	})
}

// A Grouper hands the caller's slices through to the group callback — it
// never copies a key or a value — and one Grouper serves any number of
// merges, a hot key's group growing its value list by doubling.
func TestGrouperAliasesItsInput(t *testing.T) {
	var g Grouper
	k, v := []byte("k"), []byte("v1")
	var got string
	fn := func(key []byte, vals [][]byte) {
		got = fmt.Sprintf("%s=%s", key, vals[0])
		if &key[0] != &k[0] || &vals[0][0] != &v[0] {
			t.Fatal("the group does not alias the slices Add was handed")
		}
	}
	g.Add(k, v, nil, fn)
	copy(v, "XX") // what the caller writes through its slice, the group sees
	g.Flush(fn)
	if got != "k=XX" {
		t.Fatalf("group = %q, want k=XX", got)
	}
	for merge := 0; merge < 2; merge++ {
		const n = 100000
		grows, lastCap := 0, cap(g.vals)
		seen := 0
		count := func(key []byte, vals [][]byte) { seen = len(vals) }
		for i := 0; i < n; i++ {
			g.Add(k, v, nil, count)
			if c := cap(g.vals); c != lastCap {
				grows, lastCap = grows+1, c
			}
		}
		g.Flush(count)
		if seen != n {
			t.Fatalf("merge %d: group of %d values, want %d", merge, seen, n)
		}
		// Doubling from nothing reaches n in about log2(n) = 17 steps; append's
		// 1.25x steps would take over 30. The second merge reuses the list.
		if want := 18 * (1 - merge); grows > want {
			t.Fatalf("merge %d: value list reallocated %d times, want at most %d", merge, grows, want)
		}
	}
}

// Property: encode/decode round-trips arbitrary pair sequences.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(pairs [][2][]byte) bool {
		var buf []byte
		for _, p := range pairs {
			buf = AppendPair(buf, p[0], p[1])
		}
		d := NewDecoder(buf)
		for _, p := range pairs {
			k, v, ok := d.Next()
			if !ok || !bytes.Equal(k, p[0]) || !bytes.Equal(v, p[1]) {
				return false
			}
		}
		_, _, ok := d.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging R sorted random runs yields a sorted permutation of the
// union of inputs.
func TestMergeStreamsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		runs := rng.Intn(6) + 1
		var streams []PairStream
		var all []string
		for r := 0; r < runs; r++ {
			n := rng.Intn(30)
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%03d", rng.Intn(50))
				all = append(all, keys[i])
			}
			sort.Strings(keys)
			var buf []byte
			for _, k := range keys {
				buf = AppendPair(buf, []byte(k), []byte("v"))
			}
			streams = append(streams, NewSliceStream(buf))
		}
		var got []string
		MergeStreams(streams, nil, func(k, v []byte) { got = append(got, string(k)) })
		sort.Strings(all)
		if !reflect.DeepEqual(got, all) {
			t.Fatalf("trial %d: merge is not a sorted permutation", trial)
		}
	}
}

// Property: sorting a buffer yields (partition, key)-ordered pairs and
// preserves the multiset of pairs.
func TestBufferSortProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuffer(0)
		count := map[string]int{}
		for i := 0; i < int(n); i++ {
			p := rng.Intn(4)
			key := fmt.Sprintf("k%d", rng.Intn(20))
			val := fmt.Sprintf("v%d", i)
			b.Add(p, []byte(key), []byte(val))
			count[fmt.Sprintf("%d/%s/%s", p, key, val)]++
		}
		b.SortByPartitionKey(nil)
		for i := 0; i < b.Len(); i++ {
			count[fmt.Sprintf("%d/%s/%s", b.Partition(i), b.Key(i), b.Val(i))]--
			if i > 0 {
				if b.Partition(i-1) > b.Partition(i) {
					return false
				}
				if b.Partition(i-1) == b.Partition(i) && bytes.Compare(b.Key(i-1), b.Key(i)) > 0 {
					return false
				}
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// SliceStreams streams each buffer as NewSliceStream does, lists in order,
// in two allocations however many buffers there are.
func TestSliceStreamsMatchNewSliceStream(t *testing.T) {
	var runs [][]byte
	for i := 0; i < 5; i++ {
		var run []byte
		for j := 0; j < i; j++ {
			run = AppendPair(run, []byte(fmt.Sprintf("k%d-%d", i, j)), []byte{byte(j)})
		}
		runs = append(runs, run)
	}
	drain := func(s PairStream) (pairs []string) {
		for {
			k, v, ok := s.Peek()
			if !ok {
				return pairs
			}
			pairs = append(pairs, fmt.Sprintf("%s=%x", k, v))
			s.Advance()
		}
	}
	streams := SliceStreams(runs[:2], runs[2:])
	if len(streams) != len(runs) {
		t.Fatalf("%d streams for %d buffers", len(streams), len(runs))
	}
	for i, s := range streams {
		if got, want := drain(s), drain(NewSliceStream(runs[i])); !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %d: %q, want %q", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { SliceStreams(runs[:2], runs[2:]) }); n != 2 {
		t.Fatalf("SliceStreams allocates %.1f objects for %d buffers, want 2", n, len(runs))
	}
}
