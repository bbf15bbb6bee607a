package resident

import (
	"slices"

	"onepass/internal/engine"
	"onepass/internal/kv"
)

// refFoldTable is the former foldTable, kept verbatim as the oracle for the
// arena table: a Go map from key to a position in two side slices, one heap
// slice per element.
type refFoldTable struct {
	agg    *engine.Fold
	idx    map[string]int
	keys   []string
	states [][]byte
}

func newRefFoldTable(agg *engine.Fold) *refFoldTable {
	return &refFoldTable{agg: agg, idx: make(map[string]int)}
}

func (t *refFoldTable) fold(key, val []byte) {
	if i, ok := t.idx[string(key)]; ok {
		t.states[i] = t.agg.Add(t.states[i], val)
		return
	}
	k := string(key)
	t.idx[k] = len(t.keys)
	t.keys = append(t.keys, k)
	t.states = append(t.states, t.agg.Lift(nil, val))
}

// refChunks is the former map-side fold of buildChunks: one table per
// partition, emptied partition by partition, each in insertion order. A map
// attempt's chunks are matched by (partition, seq) and bytes against the
// attempt it replaces, so the one-table fold must seal these exact chunks.
func refChunks(buf *kv.Buffer, R int, fold *engine.Fold, chunkBytes int64) []kv.Chunk {
	tables := make([]*refFoldTable, R)
	for r := range tables {
		tables[r] = newRefFoldTable(fold)
	}
	for i, n := 0, buf.Len(); i < n; i++ {
		tables[buf.Partition(i)].fold(buf.Key(i), buf.Val(i))
	}
	out := kv.NewBuffer(0)
	var key []byte
	for r, tb := range tables {
		for i, k := range tb.keys {
			key = append(key[:0], k...)
			out.Add(r, key, tb.states[i])
		}
	}
	return kv.PackPartitions(out, R, chunkBytes).Chunks
}

// refTwoPassChunks is the former declared-job map side of buildChunks, kept
// as the oracle for the table that folds as Map emits and drains straight
// into the frame: it folded a filled map-output buffer into the one-table
// fold, drained the table into a second buffer, packed that, and put the
// chunks in push order — full chunks partition-major, then the tails —
// dropping those below the delivery frontier already.
func refTwoPassChunks(buf *kv.Buffer, R int, fold *engine.Fold, chunkBytes int64, already []int) []kv.Chunk {
	table := newFoldTable(fold)
	for i := 0; i < buf.Len(); i++ {
		table.fold(buf.Key(i), buf.Val(i), buf.Partition(i))
	}
	out := kv.NewBuffer(0)
	table.tbl.InOrder(func(k, elem []byte, part uint64) bool {
		out.Add(int(part), k, elem)
		return true
	})
	chunks := kv.PackPartitions(out, R, chunkBytes).Chunks
	rank := func(c kv.Chunk) int {
		if int64(len(c.Data)) < chunkBytes {
			return R + c.Part
		}
		return c.Part
	}
	slices.SortStableFunc(chunks, func(a, b kv.Chunk) int { return rank(a) - rank(b) })
	if already != nil {
		chunks = slices.DeleteFunc(chunks, func(c kv.Chunk) bool { return c.Seq < already[c.Part] })
	}
	return chunks
}
