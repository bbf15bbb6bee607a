package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The comparator call sequence of the map-side sort and of the merge heap
// is the cost model: every call is one charged comparison. The oracles
// below are the implementations these kernels replaced, kept verbatim —
// sort.Slice over the refs with a payload-dereferencing comparator, and a
// heap that calls Peek twice per comparison. Every test and fuzz target in
// this file demands the same output order AND the same counter value.
//
// The sort oracles run the installed Go's sort.Slice, while kv sorts with
// its own copy of Go 1.24.0's pdqsort (zsort.go). Should a toolchain change
// the standard library's pdqsort, the counter checks here fail while
// TestSortCountsPinned, which pins kv's counts as numbers, still passes:
// the oracle moved, not kv's sort.

// refSortByPartitionKey is the former Buffer.SortByPartitionKey.
func refSortByPartitionKey(b *Buffer, counter *int64) {
	sort.Slice(b.refs, func(i, j int) bool {
		if counter != nil {
			*counter++
		}
		ri, rj := b.refs[i], b.refs[j]
		if ri.part != rj.part {
			return ri.part < rj.part
		}
		if c := Compare(b.data[ri.off:ri.off+ri.klen], b.data[rj.off:rj.off+rj.klen], nil); c != 0 {
			return c < 0
		}
		return ri.off < rj.off
	})
}

// refSortIdxByKey is the former hop.sortIdxByKey, MapReduce Online's
// private per-chunk sort.
func refSortIdxByKey(buf *Buffer, idxs []int, cmps *int64) {
	sort.Slice(idxs, func(a, b int) bool {
		if c := Compare(buf.Key(idxs[a]), buf.Key(idxs[b]), cmps); c != 0 {
			return c < 0
		}
		return idxs[a] < idxs[b]
	})
}

// refMergeStreams is the former MergeStreams: the same binary heap, keyed
// by peeking both streams on every comparison.
func refMergeStreams(streams []PairStream, counter *int64, emit func(key, val []byte)) {
	h := make([]int, 0, len(streams))
	less := func(a, b int) bool {
		ka, _, _ := streams[a].Peek()
		kb, _, _ := streams[b].Peek()
		if c := Compare(ka, kb, counter); c != 0 {
			return c < 0
		}
		return a < b
	}
	var down func(i int)
	down = func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && less(h[l], h[small]) {
				small = l
			}
			if r < len(h) && less(h[r], h[small]) {
				small = r
			}
			if small == i {
				return
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
	}
	up := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(h[i], h[parent]) {
				return
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	}
	for i, s := range streams {
		if _, _, ok := s.Peek(); ok {
			h = append(h, i)
			up(len(h) - 1)
		}
	}
	for len(h) > 0 {
		top := h[0]
		k, v, _ := streams[top].Peek()
		emit(k, v)
		streams[top].Advance()
		if _, _, ok := streams[top].Peek(); ok {
			down(0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) > 0 {
				down(0)
			}
		}
	}
}

// testPair is one map-output pair of a sort case. The value is never
// empty, on purpose: two pairs that are empty in both key and value share a
// byte offset, which the former comparator broke ties on, so it treated
// them as equal where the index tie-break orders them. Such pairs are
// byte-identical (the output cannot differ) and no workload emits them,
// but pdqsort may take a different path through a run of them, so they are
// the one input family the counter pin does not cover.
type testPair struct {
	part int
	key  string
	val  string
}

func fillBuffer(pairs []testPair) *Buffer {
	b := NewBuffer(0)
	for _, p := range pairs {
		b.Add(p.part, []byte(p.key), []byte(p.val))
	}
	return b
}

func dumpBuffer(b *Buffer) []string {
	out := make([]string, b.Len())
	for i := range out {
		out[i] = fmt.Sprintf("%d/%q=%q", b.Partition(i), b.Key(i), b.Val(i))
	}
	return out
}

// checkSortMatchesReference sorts pairs with SortByPartitionKey and, per
// partition in production order, with SortIndices, and compares each
// against its oracle: same order, same counter.
func checkSortMatchesReference(t *testing.T, pairs []testPair) {
	t.Helper()
	got, want := fillBuffer(pairs), fillBuffer(pairs)
	var gotCmps, wantCmps int64
	got.SortByPartitionKey(&gotCmps)
	refSortByPartitionKey(want, &wantCmps)
	if g, w := dumpBuffer(got), dumpBuffer(want); !slices.Equal(g, w) {
		t.Fatalf("SortByPartitionKey order differs from reference\n got %v\nwant %v", g, w)
	}
	if gotCmps != wantCmps {
		t.Fatalf("SortByPartitionKey charged %d comparisons, reference %d", gotCmps, wantCmps)
	}
	// A second sort of the (now sorted) buffer runs on recycled scratch and
	// a different input pattern; it must agree too.
	gotCmps, wantCmps = 0, 0
	got.SortByPartitionKey(&gotCmps)
	refSortByPartitionKey(want, &wantCmps)
	if g, w := dumpBuffer(got), dumpBuffer(want); !slices.Equal(g, w) || gotCmps != wantCmps {
		t.Fatalf("re-sort differs from reference: %d vs %d comparisons", gotCmps, wantCmps)
	}

	buf := fillBuffer(pairs)
	byPart := map[int][]int{}
	for i, p := range pairs {
		byPart[p.part] = append(byPart[p.part], i)
	}
	for part, idxs := range byPart {
		ref := append([]int(nil), idxs...)
		gotCmps, wantCmps = 0, 0
		buf.SortIndices(idxs, &gotCmps)
		refSortIdxByKey(buf, ref, &wantCmps)
		if !slices.Equal(idxs, ref) {
			t.Fatalf("SortIndices(partition %d) order differs from reference\n got %v\nwant %v", part, idxs, ref)
		}
		if gotCmps != wantCmps {
			t.Fatalf("SortIndices(partition %d) charged %d comparisons, reference %d", part, gotCmps, wantCmps)
		}
	}
}

// adversarialKeys are the keys the normalized-key prefix could get wrong:
// shared 8-byte prefixes, keys shorter than the prefix, zero bytes that the
// prefix padding imitates, the empty key, and — for the length byte under the
// seven prefix bytes — keys of 7, 8 and 9 bytes that share their first seven.
var adversarialKeys = []string{
	"", "\x00", "\x00\x00", "a", "a\x00", "a\x00\x00", "ab", "abcdefg", "abcdefg\x00",
	"abcdefg\x00\x00", "abc\x00\x00\x00", "abc\x00\x00\x00\x00", "abcdefgz", "abcdefghi",
	"abcdefgh", "abcdefgh\x00", "abcdefgha", "abcdefghb", "abcdefgh\xff", "abcdefgi",
	"abcdefg\xff", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00",
	"u1234567", "u12345678", "u123456789", "u1234566", "u123456",
}

func sortCases() map[string][]testPair {
	cases := map[string][]testPair{
		"empty":  nil,
		"single": {{0, "k", "v"}},
	}
	var each, allEqual, emptyKeys, shared, short, reversed []testPair
	for i, k := range adversarialKeys {
		each = append(each, testPair{i % 3, k, fmt.Sprint(i)})
		each = append(each, testPair{(i + 1) % 3, k, fmt.Sprint(-i)})
	}
	for i := 0; i < 200; i++ {
		allEqual = append(allEqual, testPair{0, "same-key-longer-than-eight", fmt.Sprint(i)})
		emptyKeys = append(emptyKeys, testPair{i % 2, "", fmt.Sprint(i)})
		shared = append(shared, testPair{i % 4, "prefix00" + fmt.Sprint((i*7919)%50), "v"})
		short = append(short, testPair{i % 4, fmt.Sprint((i * 31) % 97), "v"})
		reversed = append(reversed, testPair{0, fmt.Sprintf("key-%05d", 200-i), "v"})
	}
	cases["each-adversarial-key-twice"] = each
	cases["all-equal-keys"] = allEqual
	cases["empty-keys"] = emptyKeys
	cases["shared-8-byte-prefix"] = shared
	cases["keys-shorter-than-8"] = short
	cases["reverse-sorted"] = reversed
	return cases
}

func TestSortMatchesReference(t *testing.T) {
	for name, pairs := range sortCases() {
		t.Run(name, func(t *testing.T) { checkSortMatchesReference(t, pairs) })
	}
}

// Property: random buffers drawn from the adversarial key set, at sizes on
// both sides of pdqsort's insertion-sort and ninther thresholds, then large
// buffers on each of the sort's two comparators.
func TestSortMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		if trial%10 == 0 {
			n = 2000 + rng.Intn(3000)
		}
		parts := 1 + rng.Intn(5)
		pairs := make([]testPair, n)
		for i := range pairs {
			key := adversarialKeys[rng.Intn(len(adversarialKeys))]
			if rng.Intn(3) == 0 {
				key = fmt.Sprintf("u%d", rng.Intn(1+n/4))
			}
			pairs[i] = testPair{rng.Intn(parts), key, fmt.Sprint(i)}
		}
		checkSortMatchesReference(t, pairs)
	}
	// Large buffers whose keys all fit the prefix take the call-free
	// comparator past the ninther threshold; one long key among them sends
	// the same buffer down the key-comparing path. Where a few more long
	// keys tie on its prefix, a sort that kept the call-free comparator
	// would order them by index, not by key.
	var short []string
	for _, k := range adversarialKeys {
		if len(k) < 8 {
			short = append(short, k)
		}
	}
	for trial := 0; trial < 24; trial++ {
		n := 2000 + rng.Intn(3000)
		parts := 1 + rng.Intn(5)
		pairs := make([]testPair, n)
		for i := range pairs {
			key := short[rng.Intn(len(short))]
			if rng.Intn(2) == 0 {
				key = fmt.Sprintf("u%d", rng.Intn(1+n/4))
			}
			pairs[i] = testPair{rng.Intn(parts), key, fmt.Sprint(i)}
		}
		if trial%2 == 1 {
			pairs[rng.Intn(n)].key = adversarialKeys[rng.Intn(len(adversarialKeys))] + "-past-the-prefix"
		}
		if trial%4 == 3 {
			for j := 0; j < 8; j++ {
				pairs[rng.Intn(n)].key = fmt.Sprintf("u123456-%d", rng.Intn(4))
			}
		}
		checkSortMatchesReference(t, pairs)
	}
}

// pairsFromBytes decodes fuzz input into sort pairs: per pair one control
// byte (partition, key length, whether to prepend a shared 8-byte prefix)
// followed by the key bytes. Values are the pair's ordinal, never empty.
func pairsFromBytes(data []byte) []testPair {
	var pairs []testPair
	for len(data) > 0 {
		ctl := data[0]
		data = data[1:]
		klen := int(ctl>>2) % 12
		if klen > len(data) {
			klen = len(data)
		}
		key := string(data[:klen])
		data = data[klen:]
		if ctl&0x80 != 0 {
			key = "shared8b" + key
		}
		pairs = append(pairs, testPair{int(ctl & 3), key, fmt.Sprint(len(pairs))})
	}
	return pairs
}

func FuzzBufferSortMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                               // empty keys, one partition
	f.Add([]byte{4, 'a', 8, 'a', 0, 4, 'a', 0x84, 'a'})     // "a", "a\0", shared prefix
	f.Add([]byte{0x80, 0x80, 0x81, 0x84, 0, 0x84, 0, 0x80}) // keys equal to the prefix ± zero bytes
	f.Add(bytes.Repeat([]byte{0x20, 'u', '1', '2', '3', '4', '5', '6', '7'}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortMatchesReference(t, pairsFromBytes(data))
	})
}

// mergeCase is the input of one merge: per stream, its keys in the order
// they are encoded (sorted by the caller).
type mergeCase [][]string

// streamOpener turns stream i's encoded pairs into the PairStream a merge
// reads.
type streamOpener func(i int, enc []byte) PairStream

// inMemory opens every stream as an in-memory segment, which MergeGroups
// decodes itself.
func inMemory(_ int, enc []byte) PairStream { return NewSliceStream(enc) }

// oddChunked opens the odd-numbered streams as chunkedStreams, mixing the
// interface path into a merge of in-memory segments.
func oddChunked(i int, enc []byte) PairStream {
	if i%2 == 0 {
		return NewSliceStream(enc)
	}
	return &chunkedStream{src: enc, chunk: 1 + i%5}
}

// chunkedStream reads its pairs the way a run file streamed off disk is
// read: the source arrives a few bytes at a time, appended to a buffer that
// moves when it grows, and a pair is cut from what has arrived. A pair it
// has handed out keeps its bytes when the buffer moves.
type chunkedStream struct {
	src      []byte
	chunk    int
	buf      []byte
	off      int
	key, val []byte
	valid    bool
}

func (s *chunkedStream) Peek() ([]byte, []byte, bool) {
	for !s.valid {
		k, v, n := DecodePair(s.buf[s.off:])
		if n > 0 {
			s.key, s.val, s.valid = k, v, true
			s.off += n
			break
		}
		if len(s.src) == 0 {
			return nil, nil, false
		}
		c := min(s.chunk, len(s.src))
		s.buf = append(s.buf, s.src[:c]...)
		s.src = s.src[c:]
	}
	return s.key, s.val, true
}

func (s *chunkedStream) Advance() { s.valid = false }

// mergeMismatch merges mc's streams, opened by open, through MergeStreams,
// through MergeGroups on scratch, and through refMergeStreams, and
// describes the first way they disagree: MergeStreams must emit the
// reference's pairs in its order, MergeGroups must hand over its runs of
// consecutive equal keys, and both must count the reference's comparisons.
func mergeMismatch(mc mergeCase, open streamOpener, scratch *MergeScratch) error {
	streams := func() []PairStream {
		out := make([]PairStream, len(mc))
		for i, keys := range mc {
			var enc []byte
			for j, k := range keys {
				enc = AppendPair(enc, []byte(k), []byte(fmt.Sprintf("s%d.%d", i, j)))
			}
			out[i] = open(i, enc)
		}
		return out
	}
	var got, want []string
	var groups, wantGroups []string
	var gotCmps, groupCmps, wantCmps int64
	MergeStreams(streams(), &gotCmps, func(k, v []byte) { got = append(got, fmt.Sprintf("%q=%s", k, v)) })
	var runKey []byte
	var run []string
	flush := func() {
		if run != nil {
			wantGroups = append(wantGroups, fmt.Sprintf("%q=%v", runKey, run))
		}
	}
	refMergeStreams(streams(), &wantCmps, func(k, v []byte) {
		want = append(want, fmt.Sprintf("%q=%s", k, v))
		if run == nil || !bytes.Equal(k, runKey) {
			flush()
			runKey, run = bytes.Clone(k), nil
		}
		run = append(run, string(v))
	})
	flush()
	MergeGroups(streams(), &groupCmps, scratch, func(k []byte, vals [][]byte) {
		strs := make([]string, len(vals))
		for i, v := range vals {
			strs[i] = string(v)
		}
		groups = append(groups, fmt.Sprintf("%q=%v", k, strs))
	})
	switch {
	case !slices.Equal(got, want):
		return fmt.Errorf("MergeStreams order differs from reference\n got %v\nwant %v", got, want)
	case gotCmps != wantCmps:
		return fmt.Errorf("MergeStreams charged %d comparisons, reference %d", gotCmps, wantCmps)
	case !slices.Equal(groups, wantGroups):
		return fmt.Errorf("MergeGroups groups differ from reference\n got %v\nwant %v", groups, wantGroups)
	case groupCmps != wantCmps:
		return fmt.Errorf("MergeGroups charged %d comparisons, reference %d", groupCmps, wantCmps)
	}
	return nil
}

// checkMergeMatchesReference runs mergeMismatch over mc with every stream
// in memory and again with in-memory and chunked streams mixed, on one
// scratch that carries over between the merges.
func checkMergeMatchesReference(t *testing.T, mc mergeCase) {
	t.Helper()
	var scratch MergeScratch
	for _, open := range []streamOpener{inMemory, oddChunked} {
		if err := mergeMismatch(mc, open, &scratch); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMergeMatchesReference(t *testing.T) {
	sorted := append([]string(nil), adversarialKeys...)
	sort.Strings(sorted)
	equal := make([]string, 50)
	for i := range equal {
		equal[i] = "same-key-longer-than-eight"
	}
	cases := map[string]mergeCase{
		"no-streams":          {},
		"one-stream":          {sorted},
		"only-empty-streams":  {nil, nil, nil},
		"empty-among-full":    {nil, sorted, nil, sorted, nil},
		"identical-streams":   {sorted, sorted, sorted, sorted, sorted},
		"all-equal-keys":      {equal, equal, equal},
		"empty-keys":          {{"", "", ""}, {"", ""}, {""}},
		"empty-then-others":   {{"", "", "a"}, {"", "\x00"}, {"\x00"}},
		"zero-byte-neighbors": {{"a", "a\x00\x00"}, {"a\x00"}, {"", "a"}},
		// Keys tying on the seven prefix bytes, so group boundaries are
		// found by comparing the keys past them.
		"prefix-ties": {
			{"abcdefg", "abcdefgh", "abcdefgh", "abcdefghi"},
			{"abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefghi"},
			{"abcdefg\x00", "abcdefgh", "abcdefgi"},
		},
	}
	for name, mc := range cases {
		t.Run(name, func(t *testing.T) { checkMergeMatchesReference(t, mc) })
	}
}

func TestMergeMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		mc := make(mergeCase, rng.Intn(12))
		for i := range mc {
			keys := make([]string, rng.Intn(60))
			for j := range keys {
				keys[j] = adversarialKeys[rng.Intn(len(adversarialKeys))]
				if rng.Intn(2) == 0 {
					keys[j] = fmt.Sprintf("u%d", rng.Intn(40))
				}
			}
			sort.Strings(keys)
			mc[i] = keys
		}
		checkMergeMatchesReference(t, mc)
	}
}

// mergeCaseFromBytes decodes fuzz input into sorted streams: a control byte
// per key (bit 6 starts a new stream, bit 7 prepends the shared prefix, the
// low bits give the key length) followed by the key bytes.
func mergeCaseFromBytes(data []byte) mergeCase {
	mc := mergeCase{nil}
	for len(data) > 0 {
		ctl := data[0]
		data = data[1:]
		if ctl&0x40 != 0 && len(mc) < 16 {
			mc = append(mc, nil)
		}
		klen := int(ctl & 0x0f)
		if klen > len(data) {
			klen = len(data)
		}
		key := string(data[:klen])
		data = data[klen:]
		if ctl&0x80 != 0 {
			key = "shared8b" + key
		}
		mc[len(mc)-1] = append(mc[len(mc)-1], key)
	}
	for _, keys := range mc {
		sort.Strings(keys)
	}
	return mc
}

// FuzzMergeStreamsMatchesReference holds MergeStreams and MergeGroups to
// the reference merge, all streams in memory and mixed with chunked ones.
func FuzzMergeStreamsMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x40, 0, 0x40})                   // empty keys across streams, one empty stream
	f.Add([]byte{1, 'a', 0x42, 'a', 0, 0x43, 'a', 0, 0}) // "a", "a\0", "a\0\0"
	f.Add([]byte{0x80, 0xc1, 0, 0xc0, 0x81, 'x'})        // keys around the shared prefix
	f.Add(bytes.Repeat([]byte{0x48, 'u', '1', '2', '3', '4', '5', '6', '7'}, 12))
	f.Add([]byte{0x81, 'a', 0x81, 'a', 0xc1, 'a', 0x80, 0xc0, 0x81, 'b'}) // groups of keys past the prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMergeMatchesReference(t, mergeCaseFromBytes(data))
	})
}
