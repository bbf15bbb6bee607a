package workloads

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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
	for _, g := range countingSortEdgeGroups() {
		check("counting-sort edge", g)
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

// countingSortEdgeGroups are groups at the counting sort's limits: the
// smallest group it takes, with its timestamps spanning exactly the most it
// takes and one second more, shuffled and with repeated timestamps and
// clicks; and one click short of the size floor.
func countingSortEdgeGroups() [][][]byte {
	rng := rand.New(rand.NewSource(36))
	var out [][][]byte
	for _, n := range []int{countingSortMin - 1, countingSortMin, 3 * countingSortMin} {
		for _, span := range []int{countingSortSpan * n, countingSortSpan*n + 1, 1} {
			vals := make([][]byte, n)
			for i := range vals {
				ts := 869769600 + rng.Intn(span)
				if i < 2 {
					ts = 869769600 + i*(span-1) // pin both ends of the span
				}
				vals[i] = []byte(fmt.Sprintf("%d /p%d", ts, rng.Intn(3)))
			}
			rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			out = append(out, vals)
		}
	}
	return out
}

// narrowGroup spreads a fuzz group into a group the counting sort takes:
// each input byte becomes a click at one of 64 seconds, enough of them to
// pass the size floor, so timestamps tie and clicks repeat.
func narrowGroup(group []byte) [][]byte {
	if len(group) == 0 {
		return nil
	}
	var vals [][]byte
	for len(vals) < countingSortMin || len(vals) < len(group) {
		c := group[len(vals)%len(group)]
		vals = append(vals, []byte(fmt.Sprintf("%d /%c", 1000+int(c)%64, 'a'+c%4)))
	}
	return vals
}

// FuzzSessionizeReducerMatchesReference cuts the input into groups at 0x00
// and each group into values at '\n', and requires the reducer and the
// former reducer to emit the same bytes for every group, through one
// instance of each so scratch carries over between groups. Each group also
// runs replicated past the counting sort's size floor and spread into a
// narrow-span group by narrowGroup.
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
			replicated := slices.Repeat(vals, countingSortMin/len(vals)+1)
			for _, vals := range [][][]byte{vals, replicated, narrowGroup(group)} {
				if got, want := sessionize(reduce, vals), sessionize(ref, vals); got != want {
					t.Fatalf("group %q (%d values): reducer %q, reference %q", group, len(vals), got, want)
				}
			}
		}
	})
}
