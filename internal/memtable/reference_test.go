package memtable

import (
	"bytes"

	"onepass/internal/hashlib"
)

// refTable is the former Table, kept verbatim as the oracle for the
// index-and-entries layout: one 48-byte slot per probe position holding the
// key slice itself, rehashed whole at every doubling. Its slot order — what
// Iterate visits — is what the hash engines' chunk contents, spill order and
// so every virtual makespan were pinned on, so Table must reproduce it
// exactly under any operation sequence (table_ref_test.go).
type refTable struct {
	h     *hashlib.Func
	arena *Arena

	entries []refEntry
	live    int
	tombs   int
	// initial is the slot array the table was created with, kept so Restart
	// can return to it after growth.
	initial []refEntry
}

type refEntryState uint8

const (
	refEmpty refEntryState = iota
	refOccupied
	refTombstone
)

type refEntry struct {
	hash  uint64
	key   []byte
	val   uint64
	state refEntryState
}

// newRefTable returns a table using hash function h and key storage in arena,
// which several tables may share.
func newRefTable(h *hashlib.Func, arena *Arena, initialCap int) *refTable {
	capacity := 16
	for capacity < initialCap {
		capacity *= 2
	}
	entries := make([]refEntry, capacity)
	return &refTable{h: h, arena: arena, entries: entries, initial: entries}
}

// Len returns the number of live keys.
func (t *refTable) Len() int { return t.live }

func (t *refTable) probe(hash uint64, key []byte) (idx int, found bool) {
	mask := uint64(len(t.entries) - 1)
	i := hash & mask
	firstTomb := -1
	for {
		e := &t.entries[i]
		switch e.state {
		case refEmpty:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case refTombstone:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		case refOccupied:
			if e.hash == hash && bytes.Equal(e.key, key) {
				return int(i), true
			}
		}
		i = (i + 1) & mask
	}
}

// arenaCopy copies b into a.
func arenaCopy(a *Arena, b []byte) []byte {
	_, out := a.copyRef(b)
	return out
}

// Get returns the value for key.
func (t *refTable) Get(key []byte) (uint64, bool) {
	idx, found := t.probe(t.h.Hash(key), key)
	if !found {
		return 0, false
	}
	return t.entries[idx].val, true
}

// Put inserts or overwrites key with val.
func (t *refTable) Put(key []byte, val uint64) {
	t.Upsert(key, func(old uint64, exists bool) uint64 { return val })
}

// Upsert applies f to the current value (or to 0 with exists=false) and
// stores the result. It returns true if the key was newly inserted.
func (t *refTable) Upsert(key []byte, f func(old uint64, exists bool) uint64) bool {
	t.maybeGrow()
	hash := t.h.Hash(key)
	idx, found := t.probe(hash, key)
	e := &t.entries[idx]
	if found {
		e.val = f(e.val, true)
		return false
	}
	if e.state == refTombstone {
		t.tombs--
	}
	*e = refEntry{hash: hash, key: arenaCopy(t.arena, key), val: f(0, false), state: refOccupied}
	t.live++
	return true
}

// Add adds delta to key's value (starting from 0) and returns the new value.
func (t *refTable) Add(key []byte, delta uint64) uint64 {
	var out uint64
	t.Upsert(key, func(old uint64, _ bool) uint64 {
		out = old + delta
		return out
	})
	return out
}

// Delete removes key, leaving a refTombstone. It reports whether the key was
// present. The key's arena bytes are not reclaimed until the arena resets —
// the same trade the paper's byte-array design makes.
func (t *refTable) Delete(key []byte) bool {
	idx, found := t.probe(t.h.Hash(key), key)
	if !found {
		return false
	}
	t.entries[idx].state = refTombstone
	t.entries[idx].key = nil
	t.live--
	t.tombs++
	return true
}

// Iterate visits live entries in slot order until f returns false. The key
// slice aliases arena memory and must not be retained across a Reset.
func (t *refTable) Iterate(f func(key []byte, val uint64) bool) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.state == refOccupied {
			if !f(e.key, e.val) {
				return
			}
		}
	}
}

// SetValue overwrites the value of an existing key; it reports whether the
// key was present.
func (t *refTable) SetValue(key []byte, val uint64) bool {
	idx, found := t.probe(t.h.Hash(key), key)
	if !found {
		return false
	}
	t.entries[idx].val = val
	return true
}

// Reset empties the table in place: the slot array is cleared and kept at
// its grown capacity, so a reused table refills without reallocating. The
// arena is not touched — tables may share one, so whoever owns it calls
// Arena.Reset once every table drawing on it has been reset. Keys
// previously returned by Iterate must not be retained.
func (t *refTable) Reset() {
	clear(t.entries)
	t.live, t.tombs = 0, 0
}

// Restart empties the table back to its initial capacity, dropping any
// grown slot array. Iteration is slot order, so a restarted table visits
// the keys of a given insert sequence exactly as a newly built one does —
// which Reset, keeping the grown capacity, does not.
func (t *refTable) Restart() {
	t.entries = t.initial
	t.Reset()
}

func (t *refTable) maybeGrow() {
	if (t.live+t.tombs)*10 < len(t.entries)*7 {
		return
	}
	old := t.entries
	t.entries = make([]refEntry, len(old)*2)
	t.live, t.tombs = 0, 0
	for i := range old {
		e := &old[i]
		if e.state != refOccupied {
			continue
		}
		idx, _ := t.probe(e.hash, e.key)
		t.entries[idx] = *e
		t.live++
	}
}
