package workloads

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"

	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/textfmt"
)

// StopwordCoverage is the fraction of word *occurrences* the stopword
// filter removes — a standard ~500-word list against a GOV2-scale Zipf
// vocabulary covers roughly 3/4-4/5 of all tokens, which is what brings the
// paper's intermediate/input ratio for inverted indexing to ~70% (Table I)
// instead of >100%. The id threshold is derived from the vocabulary size
// and skew so coverage stays constant at any generator scale.
const StopwordCoverage = 0.80

// StopwordThreshold returns the word-id cutoff achieving StopwordCoverage
// for the config's Zipf(s) vocabulary: solving sum_{k<=K} k^-s =
// coverage x sum_{k<=V} k^-s with the integral approximation
// (1-K^(1-s))/(s-1).
func StopwordThreshold(cfg gen.DocConfig) uint64 {
	e := 1 - cfg.WordSkew // negative for s > 1
	if e >= 0 || cfg.Vocab < 4 {
		return 2
	}
	k := math.Pow(1-StopwordCoverage*(1-math.Pow(float64(cfg.Vocab), e)), 1/e)
	if k < 2 {
		k = 2
	}
	return uint64(k)
}

// postingWidth is the fixed encoding of one posting: u32 doc id, u32
// position.
const postingWidth = 8

// InvertedIndex builds word → sorted postings over a document collection.
func InvertedIndex(cfg gen.DocConfig) *Workload {
	stopwords := StopwordThreshold(cfg)
	w := &Workload{Name: "inverted-index", Gen: cfg.Block}
	// Per-Workload scratch: the word slice and posting buffer are reused
	// across records (emit copies, and the simulation is single-threaded).
	var words [][]byte
	posting := make([]byte, postingWidth)
	w.Job = engine.Job{
		Name:   w.Name,
		Reader: LineReader,
		Map: func(rec []byte, emit engine.Emit) {
			d, err := textfmt.ParseDocTextInto(rec, words)
			if err != nil {
				return
			}
			words = d.Words
			for pos, word := range d.Words {
				if isStopword(word, stopwords) {
					continue
				}
				binary.BigEndian.PutUint32(posting[0:], d.ID)
				binary.BigEndian.PutUint32(posting[4:], uint32(pos))
				emit(word, posting)
			}
		},
		Reduce: reducePostingsFunc(),
		Monoid: PostingsMonoid{},
		Costs:  engine.CostModel{MapNsPerRecord: 2500, ReduceNsPerRecord: 30},
	}
	w.Job.Fresh = func() engine.Job { return InvertedIndex(cfg).Job }
	return w
}

// isStopword filters generator tokens "w<id>" with id below the threshold.
func isStopword(word []byte, threshold uint64) bool {
	if len(word) < 2 || word[0] != 'w' {
		return false
	}
	return parseUint(word[1:]) < threshold
}

// reducePostingsFunc returns a reducer producing the canonical sorted
// posting list for one word, with per-key scratch reused across keys.
func reducePostingsFunc() engine.ReduceFunc {
	var all []byte
	var scratch postingScratch
	return func(key []byte, vals [][]byte, emit engine.Emit) {
		all = all[:0]
		splitFixed(vals, postingWidth, func(unit []byte) { all = append(all, unit...) })
		emit(key, scratch.sort(all))
	}
}

// postingScratch holds the index and output buffers a posting sort needs, so
// repeated sorts (one per reduced key) reuse them.
type postingScratch struct {
	idx []int
	out []byte
}

func (s *postingScratch) sort(all []byte) []byte {
	n := len(all) / postingWidth
	if cap(s.idx) < n {
		s.idx = make([]int, n)
	}
	idx := s.idx[:n]
	for i := range idx {
		idx[i] = i * postingWidth
	}
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(all[idx[a]:idx[a]+postingWidth], all[idx[b]:idx[b]+postingWidth]) < 0
	})
	out := s.out[:0]
	for _, off := range idx {
		out = append(out, all[off:off+postingWidth]...)
	}
	s.out = out
	return out
}
