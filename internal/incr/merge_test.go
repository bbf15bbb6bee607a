package incr

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"onepass/internal/kv"
)

// draw returns a number in [0, n): math/rand under the property test, the
// fuzzer's bytes under the fuzz target.
type draw func(n int) int

// keyUniverse is small, so blocks overlap, and adversarial for the
// prefix-ordered sort and the merge-joins: the empty key, keys that agree on
// their first eight bytes, and keys ending in the zero bytes the prefix
// padding adds.
var keyUniverse = []string{
	"", "a", "a\x00", "ab", "abcdefgh", "abcdefgh\x00", "abcdefgha", "abcdefghb",
	"u0001", "u0002", "u0010", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
}

func drawPartials(d draw) map[string][]byte {
	partials := map[string][]byte{}
	for n := d(7); n > 0; n-- {
		val := make([]byte, d(4))
		for i := range val {
			val[i] = byte(d(256))
		}
		partials[keyUniverse[d(len(keyUniverse))]] = val
	}
	return partials
}

// byteSum spreads keys over n merge partitions: any function of the key
// will do.
func byteSum(n int) func(key []byte) int {
	return func(key []byte) int {
		sum := len(key)
		for _, c := range key {
			sum += int(c)
		}
		return sum % n
	}
}

// partitionOf is key's merge partition in st.
func partitionOf(st *State, key []byte) int {
	if st.partition == nil {
		return 0
	}
	return st.partition(key)
}

// layout orders keys as st lays them out, by partition and ascending within
// each, and returns the end of each partition's keys.
func layout(st *State, keys map[string]bool) ([]string, []int) {
	var out []string
	ends := make([]int, st.partitions())
	for r := range ends {
		for _, k := range sortedKeys(keys) {
			if partitionOf(st, []byte(k)) == r {
				out = append(out, k)
			}
		}
		ends[r] = len(out)
	}
	return out, ends
}

// affectedOf builds an Affected of st's layout holding exactly keys.
func affectedOf(st *State, keys map[string]bool) *Affected {
	a := new(Affected)
	sorted, ends := layout(st, keys)
	for _, k := range sorted {
		a.keys = append(a.keys, []byte(k))
	}
	a.ends = ends
	return a
}

// splitRun splits an encoded run by its keys' partitions in st, each pair
// keeping its place among its partition's.
func splitRun(st *State, run []byte) [][]byte {
	parts := make([][]byte, st.partitions())
	for rest := run; len(rest) > 0; {
		k, _, n := kv.DecodePair(rest)
		r := partitionOf(st, k)
		parts[r] = append(parts[r], rest[:n]...)
		rest = rest[n:]
	}
	return parts
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// finalsParts encodes finals as a merge job would leave them: spread over a
// few part files, no file holding a key range.
func finalsParts(finals map[string]string, d draw) [][]byte {
	parts := make([][]byte, 1+d(3))
	for _, k := range sortedKeys(finals) { // the draws must not depend on map order
		i := d(len(parts))
		parts[i] = kv.AppendPair(parts[i], []byte(k), []byte(finals[k]))
	}
	return parts
}

// captureParts encodes blocks' partials as a capture job's part files do —
// key prefixed with uvarint(block) — in a drawn order scattered over a few
// files, the way a capture run's reducers leave them.
func captureParts(blocks map[int]map[string][]byte, d draw) [][]byte {
	var pairs [][2][]byte
	for _, b := range sortedKeys(blocks) {
		partials := blocks[b]
		for _, k := range sortedKeys(partials) {
			key := append(binary.AppendUvarint(nil, uint64(b)), k...)
			pairs = append(pairs, [2][]byte{key, partials[k]})
		}
	}
	for i := len(pairs) - 1; i > 0; i-- {
		j := d(i + 1)
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	parts := make([][]byte, 1+d(3))
	for _, p := range pairs {
		i := d(len(parts))
		parts[i] = kv.AppendPair(parts[i], p[0], p[1])
	}
	return parts
}

// sameMerge demands the run state and the map oracle produce the same
// merge input — or fail with the same error. A partitioned state's input is
// the oracle's split by partition: each partition's run holds exactly that
// partition's pairs of the one-run input, in the same order.
func sameMerge(t *testing.T, what string, st *State, aff *Affected, ref *refState, refAff map[string]bool) {
	t.Helper()
	want, wantErr := ref.MergeInput(refAff)
	if wantErr != nil {
		// The merge reports the first key it meets without a final, and a
		// partitioned state meets keys partition by partition.
		live := map[string]bool{}
		for _, partials := range ref.blocks {
			for k := range partials {
				live[k] = true
			}
		}
		keys, _ := layout(st, live)
		for _, k := range keys {
			if _, ok := ref.finals[k]; !ok && !refAff[k] {
				wantErr = fmt.Errorf("incr: key %q unaffected but has no cached final", k)
				break
			}
		}
	}
	parts, keys, gotErr := st.Merge(aff)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if gotErr == nil {
		if len(parts) != st.partitions() {
			t.Fatalf("%s: %d merge partitions, want %d", what, len(parts), st.partitions())
		}
		for r, wantPart := range splitRun(st, want) {
			if !bytes.Equal(parts[r], wantPart) {
				t.Fatalf("%s: partition %d of the merge input differs from the oracle's\n got %q\nwant %q", what, r, parts[r], wantPart)
			}
		}
		if input, _ := st.MergeInput(aff); !bytes.Equal(input, slices.Concat(parts...)) {
			t.Fatalf("%s: MergeInput is not Merge's partitions back to back", what)
		}
	}
	if wantErr == nil && keys != ref.Keys() {
		t.Fatalf("%s: Merge counted %d keys, oracle has %d", what, keys, ref.Keys())
	}
	if st.Keys() != ref.Keys() {
		t.Fatalf("%s: Keys() = %d, oracle %d", what, st.Keys(), ref.Keys())
	}
}

// sameAffected demands the recorded affected keys equal the oracle's set,
// duplicate-free, in st's layout: by partition, ascending within each.
func sameAffected(t *testing.T, what string, st *State, aff *Affected, refAff map[string]bool) {
	t.Helper()
	want, _ := layout(st, refAff)
	got := aff.Keys()
	if len(got) != len(want) || aff.Len() != len(want) {
		t.Fatalf("%s: affected keys %q, oracle %q", what, got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("%s: affected keys %q, oracle %q", what, got, want)
		}
	}
}

// drawDelta picks the blocks a delta changes — some of the nBlocks existing
// ones and up to two appended past them — and their new partials, an
// emptied block having none. It returns the changed blocks ascending and
// the new block count.
func drawDelta(d draw, nBlocks int) (map[int]map[string][]byte, []int, int) {
	blocks := map[int]map[string][]byte{}
	var changed []int
	nApp := d(3)
	for b := 0; b < nBlocks+nApp; b++ {
		if b < nBlocks && d(3) > 0 {
			continue
		}
		changed = append(changed, b)
		if d(4) > 0 {
			blocks[b] = drawPartials(d)
		}
	}
	return blocks, changed, nBlocks + nApp
}

// captureBoth installs one drawn delta into both implementations — a single
// Capture here, one ReplaceBlock per changed block in the oracle — and
// returns the new block count.
func captureBoth(t *testing.T, d draw, st *State, ref *refState, nBlocks int, aff *Affected, refAff map[string]bool) int {
	t.Helper()
	blocks, changed, n := drawDelta(d, nBlocks)
	if err := st.Capture(captureParts(blocks, d), changed, n, aff); err != nil {
		t.Fatal(err)
	}
	for _, b := range changed {
		ref.ReplaceBlock(b, blocks[b], refAff)
	}
	return n
}

// mergeScenario plays one preserved-state lifetime on both implementations:
// prime some blocks with one capture, merge everything, cache finals
// (sometimes dropping one), apply two deltas that rewrite, empty and append
// blocks — each one capture, both recorded in one Affected — merging after
// each under the recorded set, then merge under nil and under an arbitrary
// key set, and finally reject a capture naming a block outside its input.
//
// The state has one merge partition or, with partitions > 1, its runs are
// laid out by byteSum(partitions).
func mergeScenario(t *testing.T, d draw, partitions int) {
	st, ref := NewPartitioned("law", partitions, byteSum(partitions)), newRefState()
	nBlocks := captureBoth(t, d, st, ref, d(8), nil, nil)
	sameMerge(t, "priming merge", st, nil, ref, nil)

	// Finals for every live key; one in four scenarios loses one, which an
	// unaffected key must turn into the missing-final error.
	finals := map[string]string{}
	for _, partials := range ref.blocks {
		for k := range partials {
			finals[k] = "final:" + k
		}
	}
	if len(finals) > 0 && d(4) == 0 {
		delete(finals, keyUniverse[d(len(keyUniverse))])
	}
	ref.SetFinals(finals)
	if err := st.SetFinals(finalsParts(finals, d)); err != nil {
		t.Fatal(err)
	}

	aff, refAff := new(Affected), map[string]bool{}
	for step := 1; step <= 2; step++ {
		nBlocks = captureBoth(t, d, st, ref, nBlocks, aff, refAff)
		what := fmt.Sprintf("delta %d", step)
		sameAffected(t, what, st, aff, refAff)
		sameMerge(t, what+" merge", st, aff, ref, refAff)
	}
	sameMerge(t, "delta merge, every key", st, nil, ref, nil)

	some := map[string]bool{}
	for n := d(6); n > 0; n-- {
		some[keyUniverse[d(len(keyUniverse))]] = true
	}
	sameMerge(t, "arbitrary affected set", st, affectedOf(st, some), ref, some)

	// A capture whose output names a block it did not read is rejected
	// whole: nothing installed, nothing recorded.
	outside := d(nBlocks + 1)
	var input []int
	for b := 0; b <= nBlocks; b++ {
		if b != outside && d(2) == 0 {
			input = append(input, b)
		}
	}
	blocks := map[int]map[string][]byte{outside: {keyUniverse[d(len(keyUniverse))]: nil}}
	for _, b := range input {
		blocks[b] = drawPartials(d)
	}
	err := st.Capture(captureParts(blocks, d), input, nBlocks+1, aff)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("block %d, which is not in the capture's input", outside)) {
		t.Fatalf("capture naming block %d outside input %v: %v", outside, input, err)
	}
	sameAffected(t, "rejected capture", st, aff, refAff)
	sameMerge(t, "after a rejected capture", st, nil, ref, nil)
}

func TestMergeMatchesReference(t *testing.T) {
	for _, partitions := range []int{1, 3} {
		name := "seed"
		if partitions > 1 {
			name = fmt.Sprintf("partitions%d-seed", partitions)
		}
		for seed := int64(0); seed < 400; seed++ {
			rng := rand.New(rand.NewSource(seed))
			t.Run(fmt.Sprint(name, seed), func(t *testing.T) { mergeScenario(t, rng.Intn, partitions) })
		}
	}
}

func FuzzMergeMatchesReference(f *testing.F) {
	// The seed corpus is in testdata/fuzz: each file is a script of draws,
	// played once on one partition and once on three.
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, partitions := range []int{1, 3} {
			script := data
			mergeScenario(t, func(n int) int {
				if len(script) == 0 {
					return 0
				}
				b := script[0]
				script = script[1:]
				return int(b) % n
			}, partitions)
		}
	})
}

// capturePart encodes (block, key, partial) triples as a capture job's part
// file does: key prefixed with uvarint(block).
func capturePart(triples ...[3]string) []byte {
	var out []byte
	for _, tr := range triples {
		out = kv.AppendPair(out, append([]byte{tr[0][0] - '0'}, tr[1]...), []byte(tr[2]))
	}
	return out
}

func TestCaptureSortsByKeyThenBlock(t *testing.T) {
	parts := [][]byte{
		capturePart([3]string{"2", "b", "5"}, [3]string{"0", "a", "3"}),
		nil,
		capturePart([3]string{"2", "a", "1"}, [3]string{"1", "c", "2"}),
	}
	st, ref := New("count"), newRefState()
	if err := st.Capture(parts, []int{0, 1, 2}, 3, nil); err != nil {
		t.Fatal(err)
	}
	ref.ReplaceBlock(0, map[string][]byte{"a": []byte("3")}, nil)
	ref.ReplaceBlock(1, map[string][]byte{"c": []byte("2")}, nil)
	ref.ReplaceBlock(2, map[string][]byte{"a": []byte("1"), "b": []byte("5")}, nil)
	sameMerge(t, "captured run", st, nil, ref, nil)
}

// TestDecodersAttributeErrors: damaged preserved state is an error naming
// where it is damaged, never a panic and never a silently wrong answer.
func TestDecodersAttributeErrors(t *testing.T) {
	good := capturePart([3]string{"1", "k", "v"})
	capture := func(parts ...[]byte) error { return New("x").Capture(parts, []int{0, 1, 2, 3}, 4, nil) }
	cases := []struct {
		name string
		err  func() error
		want []string
	}{
		{"missing block prefix", func() error {
			return capture(good, kv.AppendPair(nil, nil, []byte("v")))
		}, []string{"part 1", "no uvarint(block) prefix"}},
		{"unterminated block prefix", func() error {
			return capture(kv.AppendPair(nil, []byte{0x80, 0x80}, nil))
		}, []string{"part 0", "no uvarint(block) prefix"}},
		{"block out of range", func() error {
			return capture(capturePart([3]string{"7", "k", "v"}))
		}, []string{`key "k"`, "block 7 of 4"}},
		{"block outside the capture's input", func() error {
			return New("x").Capture([][]byte{good, capturePart([3]string{"2", "k", "v"})}, []int{1, 3}, 4, nil)
		}, []string{"part 1", `key "k"`, "block 2, which is not in the capture's input"}},
		{"truncated pair", func() error {
			return capture(append(bytes.Clone(good), good[:len(good)-1]...))
		}, []string{"part 0", fmt.Sprintf("truncated pair at byte %d", len(good))}},
		{"duplicate key in a capture", func() error {
			return capture(good, good)
		}, []string{"block 1", `duplicate key "k"`}},
		{"negative block", func() error {
			return New("x").Capture(nil, []int{-1}, 4, nil)
		}, []string{"negative block"}},
		{"input block out of range", func() error {
			return New("x").Capture(nil, []int{4}, 4, nil)
		}, []string{"input block 4 of 4"}},
		{"two finals for one key", func() error {
			p := kv.AppendPair(nil, []byte("k"), []byte("1"))
			return New("x").SetFinals([][]byte{p, p})
		}, []string{"merge output", `duplicate key "k"`}},
		{"truncated finals", func() error {
			return New("x").SetFinals([][]byte{{5, 1, 'k'}})
		}, []string{"merge output", "part 0", "truncated pair at byte 0"}},
		{"unaffected key without a final", func() error {
			s := New("x")
			s.ReplaceBlock(0, map[string][]byte{"a": nil, "b": nil}, nil)
			if err := s.SetFinals([][]byte{kv.AppendPair(nil, []byte("a"), nil)}); err != nil {
				return err
			}
			_, _, err := s.Merge(new(Affected))
			return err
		}, []string{`key "b" unaffected but has no cached final`}},
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not say %q", tc.name, err, w)
			}
		}
	}
}

// FuzzBlockFrames feeds arbitrary bytes to the capture decoder as a part
// file of block-framed pairs (keys behind uvarint(block)). They are an error,
// or a run — every partial once, (key, block) strictly ascending, with as
// many pairs as the part file — that re-encodes as a part file and captures
// to the same run again.
func FuzzBlockFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const nBlocks = 64
		every := make([]int, nBlocks)
		for b := range every {
			every[b] = b
		}
		st := New("fuzz")
		if st.Capture([][]byte{data}, every, nBlocks, nil) != nil {
			return
		}
		parts, keys, err := st.Merge(nil)
		if err != nil {
			t.Fatal(err)
		}
		run := parts[0]
		var again, prevKey []byte
		prevBlock := 0
		pairs, distinct := 0, 0
		for rest := run; len(rest) > 0; {
			k, v, n := kv.DecodePair(rest)
			if n == 0 {
				t.Fatalf("run has %d trailing bytes", len(rest))
			}
			rest = rest[n:]
			b, payload, err := DecodePartial(v)
			if err != nil || b >= nBlocks {
				t.Fatalf("run holds value %q for key %q (%v)", v, k, err)
			}
			c := bytes.Compare(prevKey, k)
			if pairs > 0 && (c > 0 || c == 0 && prevBlock >= b) {
				t.Fatalf("(%q, block %d) after (%q, block %d)", k, b, prevKey, prevBlock)
			}
			if pairs == 0 || c != 0 {
				distinct++
			}
			again = kv.AppendPair(again, append(binary.AppendUvarint(nil, uint64(b)), k...), payload)
			prevKey, prevBlock = k, b
			pairs++
		}
		if pairs != kv.CountPairs(data) || keys != distinct || st.Keys() != distinct {
			t.Fatalf("%d pairs (%d keys, counted %d) in the run, %d in the part file",
				pairs, distinct, keys, kv.CountPairs(data))
		}
		st2 := New("fuzz")
		if err := st2.Capture([][]byte{again}, every, nBlocks, nil); err != nil {
			t.Fatalf("re-encoded run rejected: %v", err)
		}
		if run2, _ := st2.MergeInput(nil); !bytes.Equal(run, run2) {
			t.Fatal("run does not survive a round trip through the part-file encoding")
		}
	})
}
