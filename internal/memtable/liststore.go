package memtable

import "encoding/binary"

// ListStore holds per-key growable record lists in arena-backed chunks:
// the reduce-side state for holistic functions (sessionization click lists,
// inverted-index postings). Records are length-prefixed inside chunks;
// chunks double from 64 bytes up to 16 KB as a list grows.
type ListStore struct {
	arena  *Arena
	chunks []chunk
	lists  []listMeta
}

type chunk struct {
	buf  []byte
	used int
	next int32
}

type listMeta struct {
	head, tail int32
}

const (
	minChunk = 64
	maxChunk = 16 << 10
)

// ListID names one list within a store.
type ListID int32

// NewListStore returns an empty store over arena.
func NewListStore(arena *Arena) *ListStore {
	return &ListStore{arena: arena}
}

// NewList creates an empty list.
func (s *ListStore) NewList() ListID {
	s.lists = append(s.lists, listMeta{head: -1, tail: -1})
	return ListID(len(s.lists) - 1)
}

func (s *ListStore) newChunk(size int) int32 {
	_, buf := s.arena.grab(size)
	s.chunks = append(s.chunks, chunk{buf: buf, next: -1})
	return int32(len(s.chunks) - 1)
}

// Append adds one record to the end of the list.
func (s *ListStore) Append(id ListID, rec []byte) {
	m := &s.lists[id]
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	need := n + len(rec)

	if m.tail < 0 || len(s.chunks[m.tail].buf)-s.chunks[m.tail].used < need {
		size := minChunk
		if m.tail >= 0 {
			size = len(s.chunks[m.tail].buf) * 2
			if size > maxChunk {
				size = maxChunk
			}
		}
		if size < need {
			size = need
		}
		c := s.newChunk(size)
		if m.tail < 0 {
			m.head = c
		} else {
			s.chunks[m.tail].next = c
		}
		m.tail = c
	}
	c := &s.chunks[m.tail]
	copy(c.buf[c.used:], hdr[:n])
	copy(c.buf[c.used+n:], rec)
	c.used += need
}
