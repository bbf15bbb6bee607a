package memtable

import (
	"bytes"
	"math/bits"

	"onepass/internal/hashlib"
)

// Table is an open-addressing (linear probing) hash table from byte-string
// keys to a caller-defined uint64 value — a counter, a packed pair, or an
// id into a ListStore — and, for the engines' per-key state, one growable
// byte-string element per key. Keys are copied into the arena once on first
// insert and elements live there too, so a table is flat memory end to end:
// a 4-byte probe index over dense, pointer-free entries that address the
// arena by offset. Deletion uses tombstones so the hot-key engine can evict
// cold keys.
//
// A table has one or more partitions, each a probe index of its own over the
// one shared entry store and arena: a map task's combine state is one table
// whose partitions are the task's reduce partitions. A partition grows on its
// own count of live keys and tombstones, exactly as a separate table would,
// so its slot order is the one a separate table fed the same operations
// has. Slot, Add, GetElem and Delete address partition 0, which is the whole
// of a one-partition table (NewTable).
//
// The entries sit in segments that double in size and never move: segment 0
// holds entries 0-7 and segment k ≥ 1 entries 8<<(k-1) up to 8<<k, so a
// full table grows by one segment and copies nothing. An entry number, and a
// pointer to its entry, stay good across inserts until a compaction
// renumbers the entries (see Slot).
//
// Two orders are observable. Slot order (ElemsIn, Elems) is the order of a
// partition's probe index and depends only on the hash function and the
// sequence of inserts, deletes and growths in that partition — the hash
// engines' chunk contents and spill order are slot order, so it is part of
// their virtual-time behaviour. Insertion order (InOrder) is the order of
// the entries, across partitions.
type Table struct {
	h     *hashlib.Func
	arena *Arena

	// parts is the partitions' probe indexes. A one-partition table keeps
	// its partition in one and allocates no list.
	parts []partition
	one   [1]partition
	// segs is the segment directory. It starts out in head, so a table of up
	// to 256 entries allocates nothing for it; append moves it to the heap
	// when the table outgrows that.
	segs [][]entry
	head [6][]entry
	// n counts the entries: every key inserted since the last Reset in
	// insertion order, deleted ones included until compact squeezes them
	// out. All but live of them are dead.
	n    int
	live int
}

// partition is one probe index over the table's entries.
type partition struct {
	// index is the probe array: 0 is an empty slot, tombstone a deleted one,
	// anything else an entry number plus one. Growing the partition rehashes
	// these four bytes a slot; entries never move for it.
	index []uint32
	// initial is the index the partition was created with, kept so Restart
	// can return to it after growth. Every partition's lies in one
	// allocation.
	initial []uint32
	live    int
	tombs   int
}

const (
	tombstone = ^uint32(0)
	// deadKey in entry.klen marks a deleted entry.
	deadKey = ^uint32(0)
	// minEntries is the size of segments 0 and 1.
	minEntries = 8
)

// entry is 40 bytes and holds no pointers, so the collector never scans a
// table. hash is the low half of the key's hash: it picks the slot (the index
// has at most 2^32 of them) and screens probes before the key comparison.
type entry struct {
	val  uint64
	key  ref
	elem ref // the element's region: ecap bytes, the first elen of them in use
	hash uint32
	klen uint32
	elen uint32
	ecap uint32
}

// NewTable returns a one-partition table using hash function h and key and
// element storage in arena, which several tables may share.
func NewTable(h *hashlib.Func, arena *Arena, initialCap int) *Table {
	return NewPartitionedTable(h, arena, 1, initialCap)
}

// NewPartitionedTable returns a table of parts partitions, each starting
// with the index a NewTable of initialCap would. However many partitions
// there are, it costs three allocations — the Table, the partition list and
// one holding every partition's index — and two for one partition.
func NewPartitionedTable(h *hashlib.Func, arena *Arena, parts, initialCap int) *Table {
	capacity := 16
	for capacity < initialCap {
		capacity *= 2
	}
	indexes := make([]uint32, parts*capacity)
	t := &Table{h: h, arena: arena}
	t.parts = t.one[:]
	if parts > 1 {
		t.parts = make([]partition, parts)
	}
	for p := range t.parts {
		index := indexes[p*capacity : (p+1)*capacity : (p+1)*capacity]
		t.parts[p] = partition{index: index, initial: index}
	}
	t.segs = t.head[:0]
	return t
}

// at returns entry e. Segment k has a power-of-two length and starts at the
// one power of two its entries share, 8<<(k-1) (0 for segment 0), so the
// offset is e's low bits.
func (t *Table) at(e int) *entry {
	s := t.segs[bits.Len(uint(e)/minEntries)]
	return &s[e&(len(s)-1)]
}

// Len returns the number of live keys.
func (t *Table) Len() int { return t.live }

// probe returns the slot of index holding key, or the slot an insert of key
// takes: the first tombstone on its probe path, else the empty slot that
// ended it.
func (t *Table) probe(index []uint32, hash uint32, key []byte) (slot int, found bool) {
	mask := uint32(len(index) - 1)
	i := hash & mask
	firstTomb := -1
	for {
		switch v := index[i]; v {
		case 0:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case tombstone:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		default:
			e := t.at(int(v - 1))
			if e.hash == hash && bytes.Equal(t.key(e), key) {
				return int(i), true
			}
		}
		i = (i + 1) & mask
	}
}

// key and elem return what an entry's refs address; elem's capacity is the
// whole region's.
func (t *Table) key(e *entry) []byte  { return t.arena.at(e.key, e.klen, e.klen) }
func (t *Table) elem(e *entry) []byte { return t.arena.at(e.elem, e.elen, e.ecap) }

// find returns key's entry number in partition 0.
func (t *Table) find(key []byte) (e int, found bool) {
	index := t.parts[0].index
	slot, found := t.probe(index, uint32(t.h.Hash(key)), key)
	if !found {
		return 0, false
	}
	return int(index[slot] - 1), true
}

// Slot is SlotIn(0, key).
func (t *Table) Slot(key []byte) (e int, inserted bool) { return t.SlotIn(0, key) }

// SlotIn returns key's entry number in partition p, inserting the key —
// value 0, no element — if it is absent there. The number addresses the
// entry in Elem, Room, SetElem and SetVal across later inserts — a growth
// adds a segment and moves no entry — until a compaction, Reset or Restart.
// A compaction runs inside an insert into a full table at least half of
// whose entries are deleted, so a caller that deletes must not keep a number
// across an insert.
func (t *Table) SlotIn(p int, key []byte) (e int, inserted bool) {
	pt := &t.parts[p]
	pt.maybeGrow(t)
	hash := uint32(t.h.Hash(key))
	slot, found := t.probe(pt.index, hash, key)
	if found {
		return int(pt.index[slot] - 1), false
	}
	if pt.index[slot] == tombstone {
		pt.tombs--
	}
	if t.n == t.capacity() {
		t.makeRoom()
	}
	k, _ := t.arena.copyRef(key)
	e = t.n
	*t.at(e) = entry{hash: hash, key: k, klen: uint32(len(key))}
	t.n++
	pt.index[slot] = uint32(t.n)
	pt.live++
	t.live++
	return e, true
}

// Add adds delta to key's value (starting from 0) and returns the new value.
func (t *Table) Add(key []byte, delta uint64) uint64 {
	e, _ := t.Slot(key)
	en := t.at(e)
	en.val += delta
	return en.val
}

// SetVal overwrites entry e's value.
func (t *Table) SetVal(e int, val uint64) { t.at(e).val = val }

// Delete is DeleteIn(0, key).
func (t *Table) Delete(key []byte) bool { return t.DeleteIn(0, key) }

// DeleteIn removes key from partition p, leaving a tombstone. It reports
// whether the key was present. The key's arena bytes are not reclaimed until
// the arena resets — the same trade the paper's byte-array design makes — so
// a key slice that Elems or InOrder handed out stays readable until then.
// The element's region goes back to the arena for the next element that fits
// it.
func (t *Table) DeleteIn(p int, key []byte) bool {
	pt := &t.parts[p]
	slot, found := t.probe(pt.index, uint32(t.h.Hash(key)), key)
	if !found {
		return false
	}
	en := t.at(int(pt.index[slot] - 1))
	t.arena.release(en.elem, en.ecap)
	en.klen, en.ecap = deadKey, 0
	pt.index[slot] = tombstone
	pt.live--
	pt.tombs++
	t.live--
	return true
}

// Elem returns entry e's element. Its capacity is clipped to the arena
// region holding it, so an append that fits grows the element where it is
// and one that does not leaves the arena; either way SetElem records the
// result. The slice is good until the table's next Room, SetElem or Delete,
// any of which may hand the region to another element.
func (t *Table) Elem(e int) []byte { return t.elem(t.at(e)) }

// Scratch returns entry e's element for a fold that may grow it by need
// bytes and hand the result to SetElem. When the region has the room it is
// Elem(e). When it does not, and the grown element comes to at most
// minSlabSize bytes, it is a copy in the arena's scratch with at least that
// capacity, so the fold grows it there instead of on the heap; a larger need
// gets Elem(e), and its fold leaves the arena as it would from Elem. Either
// way SetElem places the result as it places one built on the heap: region
// sizes, and the order regions are grabbed and released, do not depend on
// where the fold ran. The slice is good until the next Scratch on any table
// of the arena, or this table's next Room, SetElem or Delete.
func (t *Table) Scratch(e, need int) []byte {
	elem := t.Elem(e)
	if n := len(elem) + need; n > cap(elem) && n <= minSlabSize {
		return t.arena.scratchCopy(elem, n)
	}
	return elem
}

// GetElem returns key's element in partition 0, as Elem does.
func (t *Table) GetElem(key []byte) ([]byte, bool) {
	e, found := t.find(key)
	if !found {
		return nil, false
	}
	return t.Elem(e), true
}

// Room returns entry e's element with capacity for at least need more
// bytes, moving it if its region is too small.
func (t *Table) Room(e, need int) []byte {
	en := t.at(e)
	if want := int(en.elen) + need; want > int(en.ecap) {
		t.place(en, t.elem(en), want)
	}
	return t.elem(en)
}

// SetElem makes elem entry e's element. When elem is Elem(e) or Room(e, n)
// grown in place, only its length is recorded. Anything else — a fold that
// outgrew the region and continued on the heap, one that built its result in
// fresh storage, a first element — is copied into the region, or into a new
// one if it does not fit.
func (t *Table) SetElem(e int, elem []byte) {
	en := t.at(e)
	if len(elem) > int(en.ecap) {
		t.place(en, elem, len(elem))
	} else if region := t.arena.at(en.elem, en.ecap, en.ecap); len(elem) > 0 && &elem[0] != &region[0] {
		copy(region, elem)
	}
	en.elen = uint32(len(elem))
}

// place moves en's element, now elem, into a region of at least want bytes
// and releases the one it leaves. A first region is an exact fit; a later one
// has at least twice the capacity of the one outgrown, rounded up to a power
// of two so that the regions elements leave behind are the sizes other
// growing elements ask for.
func (t *Table) place(en *entry, elem []byte, want int) {
	if en.ecap > 0 {
		want = 1 << bits.Len(uint(max(want, 2*int(en.ecap))-1))
	}
	r, c := t.arena.grabRegion(want)
	copy(t.arena.at(r, c, c), elem)
	t.arena.release(en.elem, en.ecap) // after the copy: elem may lie in it
	en.elem, en.elen, en.ecap = r, uint32(len(elem)), c
}

// Elems visits every live key and its element, partition by partition, each
// in slot order, until f returns false.
func (t *Table) Elems(f func(key, elem []byte) bool) {
	for p := range t.parts {
		if !t.ElemsIn(p, f) {
			return
		}
	}
}

// ElemsIn visits every live key of partition p and its element in slot order
// until f returns false, and reports whether f never did. Both slices alias
// arena memory: a key slice outlives a Delete of the key, but must not be
// retained across the arena's Reset.
func (t *Table) ElemsIn(p int, f func(key, elem []byte) bool) bool {
	for _, v := range t.parts[p].index {
		if v == 0 || v == tombstone {
			continue
		}
		e := t.at(int(v - 1))
		if !f(t.key(e), t.elem(e)) {
			return false
		}
	}
	return true
}

// InOrder visits every live key, its element and its value in insertion
// order — a key deleted and inserted again counts from its second insert —
// until f returns false. The slices alias arena memory, as in Elems.
func (t *Table) InOrder(f func(key, elem []byte, val uint64) bool) {
	for i := range t.n {
		e := t.at(i)
		if e.klen == deadKey {
			continue
		}
		if !f(t.key(e), t.elem(e), e.val) {
			return
		}
	}
}

// Reset empties the table in place: every index is cleared and kept at its
// grown capacity, and the entry segments are kept, so a reused table refills
// without reallocating. The arena is not touched — tables may share one, so
// whoever owns it calls Arena.Reset once every table drawing on it has been
// reset. Keys and elements previously returned must not be retained.
func (t *Table) Reset() {
	for p := range t.parts {
		pt := &t.parts[p]
		clear(pt.index)
		pt.live, pt.tombs = 0, 0
	}
	t.n, t.live = 0, 0
}

// Restart empties the table back to its initial capacity, dropping any
// grown index. Iteration is slot order, so a restarted table visits
// the keys of a given insert sequence exactly as a newly built one does —
// which Reset, keeping the grown capacity, does not.
func (t *Table) Restart() {
	for p := range t.parts {
		t.parts[p].index = t.parts[p].initial
	}
	t.Reset()
}

// maybeGrow doubles the index when live keys and tombstones fill 70 % of it,
// re-inserting the live entries in old slot order: slot order after a growth
// is a function of slot order before it, whatever the entries' numbers.
func (pt *partition) maybeGrow(t *Table) {
	if (pt.live+pt.tombs)*10 < len(pt.index)*7 {
		return
	}
	old := pt.index
	if len(old) >= 1<<31 {
		panic("memtable: table index cannot grow past 2^31 slots")
	}
	pt.index = make([]uint32, len(old)*2)
	pt.tombs = 0
	mask := uint32(len(pt.index) - 1)
	for _, v := range old {
		if v == 0 || v == tombstone {
			continue
		}
		i := t.at(int(v-1)).hash & mask
		for pt.index[i] != 0 {
			i = (i + 1) & mask
		}
		pt.index[i] = v
	}
}

// capacity returns how many entries the segments hold.
func (t *Table) capacity() int {
	if len(t.segs) == 0 {
		return 0
	}
	return minEntries << (len(t.segs) - 1)
}

// makeRoom is called with the segments full: it squeezes out deleted
// entries when they are at least half of them — an evicting reducer inserts
// and deletes without end, and its table must not grow with its history —
// and adds a segment as large as all the others together otherwise (two of
// minEntries to start).
func (t *Table) makeRoom() {
	if dead := t.n - t.live; dead > 0 && 2*dead >= t.n {
		t.compact()
		return
	}
	t.segs = append(t.segs, make([]entry, max(minEntries, t.n)))
}

// compact renumbers the live entries densely, keeping their order, and
// points each one's index slot at its new number. An entry only moves down,
// past numbers already rewritten, so the one slot of any partition holding
// its old number is its own. An entry does not record its partition: the
// probe path from its hash reaches that slot in its own partition, and an
// empty slot first in every other.
func (t *Table) compact() {
	n := 0
	for i := range t.n {
		e := t.at(i)
		if e.klen == deadKey {
			continue
		}
		if i != n {
			t.renumber(e.hash, uint32(i+1), uint32(n+1))
			*t.at(n) = *e
		}
		n++
	}
	t.n = n
}

// renumber rewrites the index slot holding old, on old's probe path from
// hash, to renumbered.
func (t *Table) renumber(hash, old, renumbered uint32) {
	for p := range t.parts {
		index := t.parts[p].index
		mask := uint32(len(index) - 1)
		for s := hash & mask; index[s] != 0; s = (s + 1) & mask {
			if index[s] == old {
				index[s] = renumbered
				return
			}
		}
	}
}
