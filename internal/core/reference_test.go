package core

import (
	"onepass/internal/engine"
	"onepass/internal/kv"
	"onepass/internal/memtable"
)

// refCombineMapOutput is the former map-side combine, kept verbatim as the
// oracle for the combine tables that fold as Map emits and drain straight
// into the frame: it folded a filled map-output buffer's pairs into one
// table per partition and staged every flush — budget flushes and the final
// one — in a second buffer, with each flush's state count.
func refCombineMapOutput(buf *kv.Buffer, R int, fold *engine.Fold, grouping int64) (*kv.Buffer, []int) {
	arena := memtable.NewArena(0)
	tables := make([]*stateTable, R)
	for r := range tables {
		tables[r] = newStateTable(hashAtShared(1), arena, fold)
	}
	used := func() int64 {
		var t int64
		for _, tb := range tables {
			t += tb.usedBytes()
		}
		return t
	}
	out := kv.NewBuffer(0)
	var flushCounts []int
	flushTables := func() {
		flushed := 0
		for r, tb := range tables {
			tb.iterate(func(k, s []byte) bool {
				out.Add(r, k, s)
				flushed++
				return true
			})
			tb.reset()
		}
		arena.Reset()
		flushCounts = append(flushCounts, flushed)
	}
	for i, n := 0, buf.Len(); i < n; i++ {
		tables[buf.Partition(i)].fold(buf.Key(i), buf.Val(i), formIncoming)
		if i%1024 == 1023 && used() > grouping {
			flushTables()
		}
	}
	flushTables()
	return out, flushCounts
}

// refMapFrame is the former declared-job map side of buildMapChunks: the
// combined buffer packed by a second PackPartitions pass.
func refMapFrame(buf *kv.Buffer, R int, fold *engine.Fold, grouping, chunkBytes int64) (*kv.PartitionFrame, []int) {
	out, flushes := refCombineMapOutput(buf, R, fold, grouping)
	return kv.PackPartitions(out, R, chunkBytes), flushes
}
