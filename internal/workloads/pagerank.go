package workloads

import (
	"bytes"
	"encoding/binary"

	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/kv"
)

// PageRank is the graph query from the paper's ongoing-work benchmark
// extensions ("complex queries such as top-k and graph queries"),
// implemented as iterated MapReduce jobs over chained DFS state: every
// iteration reads the previous iteration's (vertex, rank|adjacency) pairs,
// scatters rank contributions along edges, and gathers them with the
// teleport term. Ranks use fixed-point parts-per-billion arithmetic so the
// result is bit-identical across engines and value orderings (uint64
// addition commutes; floating point would not).

// RankScale is the fixed-point unit: 1.0 == 1e9.
const RankScale = 1_000_000_000

// Damping is the standard PageRank damping factor, in percent.
const Damping = 85

// tagAdjacency heads PageRankInit's one message kind: the vertex's
// space-separated neighbour names.
const tagAdjacency = 'A'

func encodeRankState(rank uint64, adj []byte) []byte {
	out := make([]byte, 8, 8+len(adj))
	binary.LittleEndian.PutUint64(out, rank)
	return append(out, adj...)
}

// DecodeRank splits a PageRank output value into the fixed-point rank and
// the adjacency list text.
func DecodeRank(val []byte) (rank uint64, adj []byte) {
	if len(val) < 8 {
		return 0, nil
	}
	return binary.LittleEndian.Uint64(val[:8]), val[8:]
}

// RankMonoid is one power iteration's reduce as a monoid. An element is one
// flag byte ("adjacency seen"), the 8-byte sum of rank contributions and the
// adjacency text; the map's two messages — a vertex's adjacency, a
// contribution to a neighbour — are elements. Combine adds the sums and
// keeps the adjacency. A vertex is sent exactly one adjacency per iteration;
// of two, the greater wins, so that Combine commutes on the whole space. The
// answer is a rank, not a sum: Final adds the teleport term for a graph of
// Nodes vertices.
type RankMonoid struct{ Nodes int }

func prState(seenAdj bool, sum uint64, adj []byte) []byte {
	out := make([]byte, 9, 9+len(adj))
	if seenAdj {
		out[0] = 1
	}
	binary.LittleEndian.PutUint64(out[1:], sum)
	return append(out, adj...)
}

func prDecode(state []byte) (seenAdj bool, sum uint64, adj []byte) {
	return state[0] == 1, binary.LittleEndian.Uint64(state[1:9]), state[9:]
}

// Combine folds b into a in place.
func (RankMonoid) Combine(a, b []byte) []byte {
	seenA, sumA, adjA := prDecode(a)
	seenB, sumB, adjB := prDecode(b)
	binary.LittleEndian.PutUint64(a[1:], sumA+sumB)
	if seenB && (!seenA || bytes.Compare(adjB, adjA) > 0) {
		a[0] = 1
		a = append(a[:9], adjB...)
	}
	return a
}

// Final emits the vertex's next (rank, adjacency) state.
func (m RankMonoid) Final(key, elem []byte, emit engine.Emit) {
	_, sum, adj := prDecode(elem)
	emit(key, encodeRankState(m.teleport()+sum, adj))
}

func (m RankMonoid) teleport() uint64 {
	return uint64(RankScale) * (100 - Damping) / 100 / uint64(m.Nodes)
}

// scatter emits one vertex's adjacency preservation message plus its rank
// contributions to each neighbour, as RankMonoid elements.
func scatter(vertex []byte, rank uint64, adj []byte, emit engine.Emit) {
	emit(vertex, prState(true, 0, adj))
	if len(adj) == 0 {
		// Dangling vertex: its mass leaks, the standard simplification.
		return
	}
	targets := bytes.Split(adj, []byte(" "))
	msg := prState(false, rank*Damping/100/uint64(len(targets)), nil)
	for _, t := range targets {
		if len(t) > 0 {
			emit(t, msg)
		}
	}
}

// gather is the reduce RankMonoid abbreviates: it folds one vertex's
// messages, in any order, into its next state.
func gather(m RankMonoid, key []byte, vals [][]byte, emit engine.Emit) {
	var seen bool
	var adj []byte
	var sum uint64
	for _, v := range vals {
		s, n, a := prDecode(v)
		sum += n
		if s && (!seen || bytes.Compare(a, adj) > 0) {
			seen, adj = true, a
		}
	}
	emit(key, encodeRankState(m.teleport()+sum, adj))
}

// PageRankInit builds iteration zero: it reads the adjacency text the graph
// generator produced and assigns every vertex rank 1/N.
func PageRankInit(cfg gen.GraphConfig) *Workload {
	w := &Workload{Name: "pagerank-init", Gen: cfg.Block}
	w.Job = engine.Job{
		Name:   w.Name,
		Reader: LineReader,
		Map: func(rec []byte, emit engine.Emit) {
			sp := bytes.IndexByte(rec, ' ')
			if sp < 0 {
				emit(rec, []byte{tagAdjacency})
				return
			}
			emit(rec[:sp], append([]byte{tagAdjacency}, rec[sp+1:]...))
		},
		Reduce: func(key []byte, vals [][]byte, emit engine.Emit) {
			var adj []byte
			for _, v := range vals {
				if len(v) > 0 && v[0] == tagAdjacency {
					adj = v[1:]
				}
			}
			emit(key, encodeRankState(RankScale/uint64(cfg.Nodes), adj))
		},
		Costs: engine.CostModel{MapNsPerRecord: 400},
	}
	w.Job.Fresh = func() engine.Job { return PageRankInit(cfg).Job }
	return w
}

// PageRankIter builds one power iteration over the previous iteration's
// output (set Job.InputPath to it before running). nodes is the graph's
// vertex count, needed for the teleport term.
func PageRankIter(nodes int) engine.Job {
	m := RankMonoid{Nodes: nodes}
	return engine.Job{
		Name:   "pagerank-iter",
		Reader: PairReader,
		Map: func(rec []byte, emit engine.Emit) {
			vertex, state, n := decodePairRecord(rec)
			if n == 0 {
				return
			}
			rank, adj := DecodeRank(state)
			scatter(vertex, rank, adj, emit)
		},
		Reduce: func(key []byte, vals [][]byte, emit engine.Emit) { gather(m, key, vals, emit) },
		Monoid: m,
		Costs:  engine.CostModel{MapNsPerRecord: 600, ReduceNsPerRecord: 80},
		Fresh:  func() engine.Job { return PageRankIter(nodes) },
	}
}

// decodePairRecord unwraps one PairReader record.
func decodePairRecord(rec []byte) (key, val []byte, n int) {
	return kv.DecodePair(rec)
}
