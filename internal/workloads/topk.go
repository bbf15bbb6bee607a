package workloads

import (
	"bytes"
	"sort"

	"onepass/internal/engine"
	"onepass/internal/kv"
)

// The paper's ongoing-work section calls out "complex queries such as
// top-k" as the next step for one-pass analytics, and §IV poses "how to
// support the combine function for complex analytical tasks such as top-k"
// as an open question. This file answers it for top-k: partial top-k lists
// are a mergeable bounded state — a monoid (TopKMonoid) — so the task gets a
// combiner and incremental per-key state and runs on every engine as the
// second stage of a chained job (counts from page-frequency in, global top-k
// out).

// TopKKey is the single group key all candidates fold into.
var TopKKey = []byte("top")

// topEntry is one (count, name) candidate.
type topEntry struct {
	count uint64
	name  []byte
}

// encodeTop frames a top-k list as "count name\n" lines, ordered by
// descending count (ties by name ascending) — both the state encoding and
// the final output format.
func encodeTop(entries []topEntry) []byte {
	var out []byte
	for _, e := range entries {
		out = appendUint(out, e.count)
		out = append(out, ' ')
		out = append(out, e.name...)
		out = append(out, '\n')
	}
	return out
}

func decodeTop(b []byte) []topEntry {
	var out []topEntry
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		if nl < 0 {
			break
		}
		line := b[:nl]
		b = b[nl+1:]
		sp := bytes.IndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		out = append(out, topEntry{count: parseUint(line[:sp]), name: append([]byte(nil), line[sp+1:]...)})
	}
	return out
}

// mergeTop merges candidate lists, keeping the k largest.
func mergeTop(k int, lists ...[]topEntry) []topEntry {
	var all []topEntry
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return bytes.Compare(all[i].name, all[j].name) < 0
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// PairReader iterates a chained job's input: the encoded (key, value)
// pairs a previous job wrote to the DFS.
func PairReader(block []byte, yield func(rec []byte)) {
	off := 0
	for off < len(block) {
		_, _, n := kv.DecodePair(block[off:])
		if n == 0 {
			return
		}
		yield(block[off : off+n])
		off += n
	}
}

// TopK builds the second-stage job: read the (name, count) pairs a counting
// job (page frequency, per-user count) wrote, and produce the k most
// frequent entries under the single key "top". Set Job.InputPath to the
// first stage's OutputPath before running.
func TopK(k int) engine.Job {
	reduceTop := func(key []byte, vals [][]byte, emit engine.Emit) {
		lists := make([][]topEntry, 0, len(vals))
		for _, v := range vals {
			lists = append(lists, decodeTop(v))
		}
		emit(key, encodeTop(mergeTop(k, lists...)))
	}
	return engine.Job{
		Name:   "top-k",
		Reader: PairReader,
		Map: func(rec []byte, emit engine.Emit) {
			name, count, n := kv.DecodePair(rec)
			if n == 0 {
				return
			}
			emit(TopKKey, encodeTop([]topEntry{{count: parseUint(count), name: name}}))
		},
		Reduce:   reduceTop,
		Monoid:   TopKMonoid{K: k},
		Reducers: 1,
		Costs:    engine.CostModel{MapNsPerRecord: 120},
		Fresh:    func() engine.Job { return TopK(k) },
	}
}

// ParseTopK decodes a TopK job's output value into (name, count) pairs in
// rank order.
func ParseTopK(val string) (names []string, counts []uint64) {
	for _, e := range decodeTop([]byte(val)) {
		names = append(names, string(e.name))
		counts = append(counts, e.count)
	}
	return names, counts
}
