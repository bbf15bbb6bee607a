package memtable

import (
	"fmt"
	"testing"

	"onepass/internal/hashlib"
)

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user-%07d", i))
	}
	return keys
}

func BenchmarkTableAdd(b *testing.B) {
	keys := benchKeys(1 << 14)
	tb := NewTable(hashlib.NewFamily(1).New(), NewArena(0), 1<<14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Add(keys[i&(1<<14-1)], 1)
	}
}

// BenchmarkTableGrow fills a fresh table with 64K keys: every growth of the
// entry segments and of the index, on an arena recycled between runs, so
// B/op is the table's own memory.
func BenchmarkTableGrow(b *testing.B) {
	keys := benchKeys(1 << 16)
	h, arena := hashlib.NewFamily(1).New(), NewArena(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := NewTable(h, arena, 64)
		for _, k := range keys {
			tb.Add(k, 1)
		}
		arena.Reset()
	}
}

func BenchmarkTableGet(b *testing.B) {
	keys := benchKeys(1 << 14)
	tb := NewTable(hashlib.NewFamily(1).New(), NewArena(0), 1<<14)
	for _, k := range keys {
		tb.Add(k, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.GetElem(keys[i&(1<<14-1)])
	}
}

func BenchmarkListStoreAppend(b *testing.B) {
	s := NewListStore(NewArena(0))
	ids := make([]ListID, 1024)
	for i := range ids {
		ids[i] = s.NewList()
	}
	rec := []byte("869769600 /en/page/1234")
	b.SetBytes(int64(len(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(ids[i&1023], rec)
	}
}

func BenchmarkArenaCopy(b *testing.B) {
	a := NewArena(0)
	payload := make([]byte, 48)
	b.SetBytes(48)
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			a.Reset() // bound memory across the run
		}
		a.copyRef(payload)
	}
}
