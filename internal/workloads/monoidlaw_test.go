package workloads

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/kv"
)

// The monoid laws promised by kv.Monoid's doc comment, checked over
// randomly generated elements of each declared monoid's value space.
// Combine may reuse its first argument's storage, so every evaluation gets
// fresh copies and compares against saved copies.

// elementGen produces one random canonical element of a monoid's value
// space. Elements must be canonical (reachable by folding map outputs):
// PostingsMonoid's laws, for instance, only hold over sorted lists.
var elementGens = map[string]func(rng *rand.Rand) []byte{
	"count": func(rng *rand.Rand) []byte {
		return appendUint(nil, rng.Uint64()%1_000_000)
	},
	"postings": func(rng *rand.Rand) []byte {
		n := rng.Intn(6)
		raw := make([]byte, n*postingWidth)
		rng.Read(raw)
		return sortPostings(raw)
	},
	"top-k": func(rng *rand.Rand) []byte {
		n := rng.Intn(6)
		entries := make([]topEntry, n)
		for i := range entries {
			entries[i] = topEntry{
				count: rng.Uint64() % 1000,
				name:  []byte(fmt.Sprintf("item-%d", rng.Intn(50))),
			}
		}
		// mergeTop canonicalizes: descending count, ties by name, truncated.
		return encodeTop(mergeTop(5, entries))
	},
	"pagerank": func(rng *rand.Rand) []byte {
		if rng.Intn(3) == 0 {
			return prState(true, 0, []byte(fmt.Sprintf("v%d v%d", rng.Intn(9), rng.Intn(9))))
		}
		return prState(false, rng.Uint64()%1_000_000, nil)
	},
}

// sortPostings sorts a flat posting array into canonical order.
func sortPostings(all []byte) []byte {
	var s postingScratch
	return s.sort(all)
}

// monoids is every monoid the workloads declare, labelled as in elementGens.
var monoids = map[string]kv.Monoid{
	"count":    CountMonoid{},
	"postings": PostingsMonoid{},
	"top-k":    TopKMonoid{K: 5},
	"pagerank": RankMonoid{Nodes: 100},
}

func cp(b []byte) []byte { return append([]byte(nil), b...) }

func combine(m kv.Monoid, a, b []byte) []byte {
	return m.Combine(cp(a), cp(b))
}

func TestMonoidLaws(t *testing.T) {
	for name, m := range monoids {
		gen, ok := elementGens[name]
		if !ok {
			t.Fatalf("monoid %q has no element generator; add one to elementGens", name)
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for trial := 0; trial < 200; trial++ {
				a, b, c := gen(rng), gen(rng), gen(rng)

				left := combine(m, combine(m, a, b), c)
				right := combine(m, a, combine(m, b, c))
				if !bytes.Equal(left, right) {
					t.Fatalf("trial %d: associativity broken:\n (a·b)·c = %q\n a·(b·c) = %q\n a=%q b=%q c=%q",
						trial, left, right, a, b, c)
				}

				// Every engine folds in arrival order, so every monoid commutes.
				ab, ba := combine(m, a, b), combine(m, b, a)
				if !bytes.Equal(ab, ba) {
					t.Fatalf("trial %d: commutativity broken: a·b = %q, b·a = %q", trial, ab, ba)
				}
			}
		})
	}
}

// TestMonoidCombineLeavesBUnaliased: an engine folds a map value into the
// key's state with Combine(state, value), where the value aliases a map
// output buffer that is still read afterwards. Combine may reuse a's
// storage but must neither write into b nor return storage that shares b's,
// or the next fold into the state would overwrite the buffer.
func TestMonoidCombineLeavesBUnaliased(t *testing.T) {
	for name, m := range monoids {
		gen := elementGens[name]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			for trial := 0; trial < 200; trial++ {
				b := gen(rng)
				want := cp(b)
				st := m.Combine(cp(gen(rng)), b)
				if !bytes.Equal(b, want) {
					t.Fatalf("trial %d: Combine wrote into b: %q, was %q", trial, b, want)
				}
				st = m.Combine(st, gen(rng))
				for i := range st {
					st[i] ^= 0xff
				}
				if !bytes.Equal(b, want) {
					t.Fatalf("trial %d: the folded state shares b's storage: b is %q, was %q", trial, b, want)
				}
			}
		})
	}
}

// TestMonoidFoldMatchesReduce: the substitutions every engine's combining
// layer depends on, checked through the one resolver the engines use
// (engine.Job.Fold). For a value multiset, the job's Reduce over the raw
// values must be byte-identical to finishing the element the values fold to
// (the hash and resident engines), to finishing the merge of per-part
// elements however the values are split (spilled states, RunDelta's per-block
// partials), and — for a declared monoid — to Reduce over the parts'
// pre-combined elements (what the sort-merge engines hand it after their
// combiner). The "free" row is a job that declares nothing: its elements are
// framed value lists, held to the same equalities plus the free monoid's own
// laws.
func TestMonoidFoldMatchesReduce(t *testing.T) {
	sortedJoin := func(key []byte, vals [][]byte, emit engine.Emit) {
		sorted := slices.Clone(vals)
		slices.SortFunc(sorted, bytes.Compare)
		emit(key, bytes.Join(sorted, []byte{0}))
	}
	cases := []struct {
		name string
		job  engine.Job
		gen  func(rng *rand.Rand) []byte
	}{
		{"count", PerUserCount(smallClickCfg()).Job, elementGens["count"]},
		{"postings", InvertedIndex(gen.DefaultDocConfig()).Job, elementGens["postings"]},
		{"top-k", TopK(5), elementGens["top-k"]},
		{"pagerank", PageRankIter(100), elementGens["pagerank"]},
		{"free", engine.Job{Name: "free", Reduce: sortedJoin}, func(rng *rand.Rand) []byte {
			v := make([]byte, rng.Intn(200)) // lengths on both sides of a one-byte frame header
			rng.Read(v)
			return v
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			f := tc.job.Fold()
			key := []byte("k")
			finish := func(elem []byte) []byte {
				var out []byte
				if _, err := f.Finish(key, elem, func(_, v []byte) { out = cp(v) }); err != nil {
					t.Fatal(err)
				}
				return out
			}
			reduce := func(vals [][]byte) []byte {
				var out []byte
				tc.job.Reduce(key, vals, func(_, v []byte) { out = cp(v) })
				return out
			}
			partial := func(vals [][]byte) []byte {
				var out []byte
				f.Partial(key, vals, func(_, v []byte) { out = cp(v) })
				return out
			}
			for trial := 0; trial < 50; trial++ {
				vals := make([][]byte, 1+rng.Intn(8))
				for i := range vals {
					vals[i] = tc.gen(rng)
				}
				want := reduce(vals)

				folded := f.Lift(nil, vals[0])
				for _, v := range vals[1:] {
					folded = f.Add(folded, v)
				}
				if got := finish(folded); !bytes.Equal(got, want) {
					t.Fatalf("trial %d: finished fold %q != reduce %q over %q", trial, got, want, vals)
				}

				// Any split into consecutive parts, each folded on its own.
				var parts [][]byte
				for rest := vals; len(rest) > 0; {
					n := 1 + rng.Intn(len(rest))
					parts = append(parts, partial(rest[:n]))
					rest = rest[n:]
				}
				merged := cp(parts[0])
				for _, p := range parts[1:] {
					merged = f.Merge(merged, p)
				}
				if got := finish(merged); !bytes.Equal(got, want) {
					t.Fatalf("trial %d: merged parts finish to %q, reduce gives %q over %q", trial, got, want, vals)
				}
				if f.Declared() {
					if got := reduce(parts); !bytes.Equal(got, want) {
						t.Fatalf("trial %d: reduce over pre-combined parts %q != reduce %q over %q", trial, got, want, vals)
					}
					continue
				}

				// The free monoid: the element is the values, framed, in fold
				// order; the empty list is the identity; concatenation
				// associates; and it commutes where it has to — in the answer.
				var back [][]byte
				rest, ok := folded, true
				for ok && len(rest) > 0 {
					var v []byte
					if v, rest, ok = kv.NextFrame(rest); ok {
						back = append(back, v)
					}
				}
				if !ok || !slices.EqualFunc(back, vals, bytes.Equal) {
					t.Fatalf("trial %d: element decodes to %q, folded from %q", trial, back, vals)
				}
				if l, r := f.Merge(nil, folded), f.Merge(cp(folded), nil); !bytes.Equal(l, folded) || !bytes.Equal(r, folded) {
					t.Fatalf("trial %d: the empty element is not an identity", trial)
				}
				a, b, c := partial(vals[:1]), folded, merged
				left := f.Merge(f.Merge(cp(a), b), c)
				right := f.Merge(cp(a), f.Merge(cp(b), c))
				if !bytes.Equal(left, right) {
					t.Fatalf("trial %d: concatenation does not associate", trial)
				}
				if ab, ba := finish(f.Merge(cp(a), b)), finish(f.Merge(cp(b), a)); !bytes.Equal(ab, ba) {
					t.Fatalf("trial %d: answer depends on merge order: %q vs %q", trial, ab, ba)
				}
			}
		})
	}
}

// pairBlock encodes a stage's reference output as the block a chained stage
// reads.
func pairBlock(out map[string]string) []byte {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var block []byte
	for _, k := range keys {
		block = kv.AppendPair(block, []byte(k), []byte(out[k]))
	}
	return block
}

// TestReduceIsMultisetFunction: MapReduce never promised a value order and
// the six engines deliver six, so every job's Reduce must be a function of
// the value multiset — the law that lets an undeclared job's values be held
// as a list in arrival order, merged from spills and rebuilt from preserved
// per-block partials. Checked, not declared: the real map output of a
// generated block is grouped by key and every group is reduced under seeded
// permutations, which must all emit the same bytes.
func TestReduceIsMultisetFunction(t *testing.T) {
	const blockSize = 32 << 10
	cc, dc := smallClickCfg(), gen.DefaultDocConfig()
	type input struct {
		name  string
		job   engine.Job
		block []byte
	}
	var inputs []input
	for _, name := range Names() {
		w, err := ByName(name, cc, dc)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, w.Job, w.Gen(0, blockSize)})
	}
	chained := func(w *Workload) []byte { return pairBlock(Reference(w, [][]byte{w.Gen(0, blockSize)})) }
	trend := WindowedTopicCounts(cc, 600)
	graph := gen.GraphConfig{Seed: 7, Nodes: 300, AvgDegree: 6, EndpointSkew: 1.3}
	inputs = append(inputs,
		input{"top-k", TopK(5), chained(PageFrequency(cc))},
		input{"trending-counts", trend.Job, trend.Gen(0, blockSize)},
		input{"trending-topk", TopKPerWindow(3), chained(trend)},
		input{"pagerank-iter", PageRankIter(graph.Nodes), chained(PageRankInit(graph))},
	)
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			groups := map[string][][]byte{}
			var order []string
			in.job.Reader(in.block, func(rec []byte) {
				in.job.Map(rec, func(k, v []byte) {
					if _, ok := groups[string(k)]; !ok {
						order = append(order, string(k))
					}
					groups[string(k)] = append(groups[string(k)], cp(v))
				})
			})
			reduce := func(key string, vals [][]byte) []byte {
				var out []byte
				in.job.Reduce([]byte(key), vals, func(k, v []byte) { out = kv.AppendPair(out, k, v) })
				return out
			}
			rng := rand.New(rand.NewSource(17))
			permuted := 0
			for _, key := range order {
				vals := groups[key]
				want := reduce(key, vals)
				if len(vals) < 2 {
					continue
				}
				permuted++
				for trial := 0; trial < 3; trial++ {
					rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
					if got := reduce(key, vals); !bytes.Equal(got, want) {
						t.Fatalf("key %q: reduce emitted %q, then %q for a permutation of the same %d values",
							key, want, got, len(vals))
					}
				}
			}
			if permuted == 0 {
				t.Fatalf("no key of %d had two values: nothing was permuted", len(order))
			}
		})
	}
}
