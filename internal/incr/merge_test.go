package incr

import (
	"bytes"
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
// normalized-key sort and the cached-prefix merge: the empty key, keys that
// agree on their first eight bytes, and keys ending in the zero bytes the
// prefix padding adds.
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

// affectedOf builds an Affected holding exactly keys, as a delta that
// touched one frame of those keys would.
func affectedOf(keys map[string]bool) *Affected {
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	slices.Sort(sorted)
	var run []byte
	for _, k := range sorted {
		run = kv.AppendPair(run, []byte(k), nil)
	}
	a := new(Affected)
	a.add(run)
	return a
}

// finalsParts encodes finals as a merge job would leave them: spread over a
// few part files, no file holding a key range.
func finalsParts(finals map[string]string, d draw) [][]byte {
	parts := make([][]byte, 1+d(3))
	keys := make([]string, 0, len(finals))
	for k := range finals {
		keys = append(keys, k)
	}
	slices.Sort(keys) // the draws must not depend on map order
	for _, k := range keys {
		i := d(len(parts))
		parts[i] = kv.AppendPair(parts[i], []byte(k), []byte(finals[k]))
	}
	return parts
}

// sameMerge demands the frame state and the map oracle produce the same
// merge input — or fail with the same error.
func sameMerge(t *testing.T, what string, st *State, aff *Affected, ref *refState, refAff map[string]bool) {
	t.Helper()
	want, wantErr := ref.MergeInput(refAff)
	got, keys, gotErr := st.Merge(aff)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: merge input differs from the oracle's\n got %q\nwant %q", what, got, want)
	}
	if wantErr == nil && keys != ref.Keys() {
		t.Fatalf("%s: Merge counted %d keys, oracle has %d", what, keys, ref.Keys())
	}
	if st.Keys() != ref.Keys() {
		t.Fatalf("%s: Keys() = %d, oracle %d", what, st.Keys(), ref.Keys())
	}
}

// mergeScenario plays one preserved-state lifetime on both implementations:
// prime some blocks, merge everything, cache finals (sometimes dropping
// one), apply a delta that rewrites, empties and adds blocks, and merge
// again under the recorded affected set, under nil, and under an arbitrary
// key set.
func mergeScenario(t *testing.T, d draw) {
	st, ref := New("law"), newRefState()
	for n := d(6); n > 0; n-- {
		b, partials := d(10), drawPartials(d)
		st.ReplaceBlock(b, partials, nil)
		ref.ReplaceBlock(b, partials, nil)
	}
	sameMerge(t, "priming merge", st, nil, ref, nil)
	if st.Blocks() != len(ref.blocks) {
		t.Fatalf("%d live blocks, oracle %d", st.Blocks(), len(ref.blocks))
	}

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
	for n := d(4); n > 0; n-- {
		b := d(10)
		var partials map[string][]byte
		if d(3) > 0 { // otherwise the block is emptied
			partials = drawPartials(d)
		}
		st.ReplaceBlock(b, partials, aff)
		ref.ReplaceBlock(b, partials, refAff)
	}
	var want []string
	for k := range refAff {
		want = append(want, k)
	}
	slices.Sort(want)
	got := aff.Keys()
	if len(got) != len(want) || aff.Len() != len(want) {
		t.Fatalf("affected keys %q, oracle %q", got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("affected keys %q, oracle %q", got, want)
		}
	}
	sameMerge(t, "delta merge", st, aff, ref, refAff)
	sameMerge(t, "delta merge, every key", st, nil, ref, nil)

	some := map[string]bool{}
	for n := d(6); n > 0; n-- {
		some[keyUniverse[d(len(keyUniverse))]] = true
	}
	sameMerge(t, "arbitrary affected set", st, affectedOf(some), ref, some)
}

func TestMergeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { mergeScenario(t, rng.Intn) })
	}
}

func FuzzMergeMatchesReference(f *testing.F) {
	// The seed corpus is in testdata/fuzz: each file is a script of draws.
	f.Fuzz(func(t *testing.T, data []byte) {
		mergeScenario(t, func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		})
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

func TestCaptureFramesSortsByBlockThenKey(t *testing.T) {
	parts := [][]byte{
		capturePart([3]string{"2", "b", "5"}, [3]string{"0", "a", "3"}),
		nil,
		capturePart([3]string{"2", "a", "1"}, [3]string{"1", "c", "2"}),
	}
	frames, err := CaptureFrames(parts, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, ref := New("count"), newRefState()
	for _, f := range frames {
		if err := st.ReplaceFrame(f.Block, f.Data, nil); err != nil {
			t.Fatal(err)
		}
	}
	ref.ReplaceBlock(0, map[string][]byte{"a": []byte("3")}, nil)
	ref.ReplaceBlock(1, map[string][]byte{"c": []byte("2")}, nil)
	ref.ReplaceBlock(2, map[string][]byte{"a": []byte("1"), "b": []byte("5")}, nil)
	if len(frames) != 3 || frames[0].Block != 0 || frames[1].Block != 1 || frames[2].Block != 2 {
		t.Fatalf("frames %+v, want blocks 0 1 2", frames)
	}
	sameMerge(t, "captured frames", st, nil, ref, nil)
}

// TestDecodersAttributeErrors: damaged preserved state is an error naming
// where it is damaged, never a panic and never a silently wrong answer.
func TestDecodersAttributeErrors(t *testing.T) {
	good := capturePart([3]string{"1", "k", "v"})
	frame := func(b int, kvs ...string) []byte {
		var out []byte
		for i := 0; i < len(kvs); i += 2 {
			out = kv.AppendTaggedPair(out, []byte(kvs[i]), MarkPartial, append([]byte{byte(b)}, kvs[i+1]...))
		}
		return out
	}
	cases := []struct {
		name string
		err  func() error
		want []string
	}{
		{"missing block prefix", func() error {
			_, err := CaptureFrames([][]byte{good, kv.AppendPair(nil, nil, []byte("v"))}, 4)
			return err
		}, []string{"part 1", "no uvarint(block) prefix"}},
		{"unterminated block prefix", func() error {
			_, err := CaptureFrames([][]byte{kv.AppendPair(nil, []byte{0x80, 0x80}, nil)}, 4)
			return err
		}, []string{"part 0", "no uvarint(block) prefix"}},
		{"block out of range", func() error {
			_, err := CaptureFrames([][]byte{capturePart([3]string{"7", "k", "v"})}, 4)
			return err
		}, []string{`key "k"`, "block 7 of 4"}},
		{"truncated pair", func() error {
			_, err := CaptureFrames([][]byte{append(bytes.Clone(good), good[:len(good)-1]...)}, 4)
			return err
		}, []string{"part 0", fmt.Sprintf("truncated pair at byte %d", len(good))}},
		{"duplicate key in a capture", func() error {
			frames, err := CaptureFrames([][]byte{good, good}, 4)
			if err != nil {
				return err
			}
			return New("x").ReplaceFrame(frames[0].Block, frames[0].Data, nil)
		}, []string{"block 1 frame", `duplicate key "k"`}},
		{"unsorted frame", func() error {
			return New("x").ReplaceFrame(2, frame(2, "b", "1", "a", "2"), nil)
		}, []string{"block 2 frame", `key "a" after "b"`}},
		{"truncated frame", func() error {
			f := frame(2, "a", "1")
			return New("x").ReplaceFrame(2, f[:len(f)-1], nil)
		}, []string{"block 2 frame", "truncated pair at byte 0"}},
		{"frame of another block", func() error {
			return New("x").ReplaceFrame(3, frame(2, "a", "1"), nil)
		}, []string{"block 3 frame", `key "a"`, "partial of block 2"}},
		{"unmarked value in a frame", func() error {
			return New("x").ReplaceFrame(0, kv.AppendPair(nil, []byte("a"), []byte("F1")), nil)
		}, []string{"block 0 frame", `key "a"`, "not a partial"}},
		{"negative block", func() error {
			return New("x").ReplaceFrame(-1, nil, nil)
		}, []string{"negative block"}},
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

// FuzzBlockFrames feeds arbitrary bytes to both decoders of preserved state.
// As a capture part file they are an error or decode to frames that
// re-encode, as a part file, to the same frames again — with no pair lost.
// As a block frame they are an error or a state whose every-key merge input
// is those bytes exactly.
func FuzzBlockFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const nBlocks = 64
		if frames, err := CaptureFrames([][]byte{data}, nBlocks); err == nil {
			var again []byte
			pairs := 0
			for i, fr := range frames {
				if i > 0 && frames[i-1].Block >= fr.Block {
					t.Fatalf("frames out of block order: %d then %d", frames[i-1].Block, fr.Block)
				}
				for dec := kv.NewDecoder(fr.Data); ; {
					k, v, ok := dec.Next()
					if !ok {
						if dec.Remaining() != 0 {
							t.Fatalf("block %d frame has %d trailing bytes", fr.Block, dec.Remaining())
						}
						break
					}
					b, payload, err := DecodePartial(v)
					if err != nil || b != fr.Block {
						t.Fatalf("block %d frame holds value %q (%v)", fr.Block, v, err)
					}
					again = kv.AppendPair(again, append([]byte{byte(b)}, k...), payload)
					pairs++
				}
			}
			if pairs != kv.CountPairs(data) {
				t.Fatalf("%d pairs in the frames, %d in the part file", pairs, kv.CountPairs(data))
			}
			frames2, err := CaptureFrames([][]byte{again}, nBlocks)
			if err != nil {
				t.Fatalf("re-encoded frames rejected: %v", err)
			}
			if !slices.EqualFunc(frames, frames2, func(a, b BlockFrame) bool {
				return a.Block == b.Block && bytes.Equal(a.Data, b.Data)
			}) {
				t.Fatal("frames do not survive a round trip through the part-file encoding")
			}
		}

		st := New("fuzz")
		if err := st.ReplaceFrame(0, data, nil); err == nil {
			got, keys, err := st.Merge(nil)
			if err != nil {
				t.Fatalf("accepted frame does not merge: %v", err)
			}
			if !bytes.Equal(got, data) || keys != kv.CountPairs(data) {
				t.Fatalf("accepted frame %q merges to %q (%d keys)", data, got, keys)
			}
		}
	})
}
