package workloads

import (
	"bytes"
	"math/rand"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/gen"
)

// clickGroups maps n 128 KB blocks of the default click log through
// Sessionization and groups the values by user. Each group keeps map-task
// order, the order a merge of the map outputs hands the reducer.
func clickGroups(n int) (keys [][]byte, groups [][][]byte) {
	w := Sessionization(gen.DefaultClickConfig())
	index := make(map[string]int)
	for b := 0; b < n; b++ {
		w.Job.Reader(w.Gen(b, 128<<10), func(rec []byte) {
			w.Job.Map(rec, func(k, v []byte) {
				g, ok := index[string(k)]
				if !ok {
					g = len(keys)
					index[string(k)] = g
					keys = append(keys, bytes.Clone(k))
					groups = append(groups, nil)
				}
				groups[g] = append(groups[g], bytes.Clone(v))
			})
		})
	}
	return keys, groups
}

// sessionize runs one group through reduce and returns a copy of its
// output value.
func sessionize(reduce engine.ReduceFunc, vals [][]byte) string {
	var got string
	reduce([]byte("u1"), vals, func(_, v []byte) { got = string(v) })
	return got
}

// sessionizeEdgeGroups are the values the packed-word reducer treats
// specially: ties, skipped values, urls with spaces and timestamps it must
// re-format rather than copy.
var sessionizeEdgeGroups = [][]string{
	{"100 /c", "100 /b", "100 /a"},              // equal timestamps, urls in reverse order
	{"100 /a", "100 /a", "50 /z", "100 /a"},     // duplicate clicks
	{"nospace", "200 /b", "", "100 /a", "300"},  // values with no space are skipped
	{"100 /a b c", "100 /a b", "100 /a", "99 "}, // urls with spaces, an empty url
	{"0 /zero", "0100 /lead", "12x3 /junk", "100 /a", "12 /b", " /empty-ts"},
	{"4294967296 /wide", "4294967295 /narrow", "9999999999 /max10", "1 /a"},
	{"123456789012345678901 /wraps", "100 /a", "99999999999 /eleven"},
	{"28446744073709551616 /wraps-to-20-digits", "18446744073709551615 /max"},
	{"4294967296 /a", "4294967296 /a", "0004294967296 /a", "10 /b"},
	{"2000 /b", "100 /a", "1900 /c", "4000 /d"}, // session gaps
}

func TestSessionizeReducerMatchesReference(t *testing.T) {
	reduce, ref := sessionizeReducer(), refSessionizeReducer()
	check := func(what string, vals [][]byte) {
		t.Helper()
		if got, want := sessionize(reduce, vals), sessionize(ref, vals); got != want {
			t.Fatalf("%s: reducer %q, reference %q", what, got, want)
		}
	}
	for _, g := range sessionizeEdgeGroups {
		vals := make([][]byte, len(g))
		for i, v := range g {
			vals[i] = []byte(v)
		}
		check("edge group", vals)
	}
	keys, groups := clickGroups(8)
	rng := rand.New(rand.NewSource(1998))
	for g, vals := range groups {
		check(string(keys[g]), vals)
		shuffled := append([][]byte(nil), vals...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		check(string(keys[g])+" shuffled", shuffled)
	}
}

// FuzzSessionizeReducerMatchesReference cuts the input into groups at 0x00
// and each group into values at '\n', and requires the reducer and the
// former reducer to emit the same bytes for every group, through one
// instance of each so scratch carries over between groups.
func FuzzSessionizeReducerMatchesReference(f *testing.F) {
	for _, g := range sessionizeEdgeGroups {
		var in []byte
		for _, v := range g {
			in = append(in, v...)
			in = append(in, '\n')
		}
		f.Add(in)
	}
	f.Add([]byte("5 /a\n3 /b\x007 /c\n7 /a\n1"))
	f.Fuzz(func(t *testing.T, in []byte) {
		reduce, ref := sessionizeReducer(), refSessionizeReducer()
		for _, group := range bytes.Split(in, []byte{0}) {
			vals := bytes.Split(group, []byte{'\n'})
			if got, want := sessionize(reduce, vals), sessionize(ref, vals); got != want {
				t.Fatalf("group %q: reducer %q, reference %q", group, got, want)
			}
		}
	})
}
