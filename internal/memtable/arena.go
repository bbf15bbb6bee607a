// Package memtable is the paper's byte-array memory-management library
// (§V): an arena allocator, an open-addressing hash table whose keys and
// per-key fold elements live in arena slabs behind pointer-free entries —
// one shared entry store under one or more partitions, each a probe index
// whose slot order is a separate table's — and a chunked list store for
// per-key growable state. The point in the paper
// was to avoid per-object JVM overhead; here it gives the same flat-memory
// layout plus the exact byte accounting the hash engines need to decide when
// a reducer's in-memory state exceeds its budget and something must spill.
package memtable

import (
	"encoding/binary"
	"math/bits"
)

// Arena is a slab allocator. Allocations are never returned to the host
// individually; Reset recycles all slabs at once (the lifetime pattern of a
// task's in-memory state). Within that lifetime a table hands back the
// regions its elements outgrow or leave behind (release), and a later
// element takes them over (grabRegion), so an arena grows with the state that
// is live in it, not with the state's history. Slabs start at minSlabSize and
// double up to the arena's slab size, so an arena that ends up holding a few
// keys costs a few kilobytes and one that holds a task's whole working set
// still amortizes its slab overhead.
type Arena struct {
	slabSize int
	next     int // size of the next slab to come from the host
	slabs    [][]byte
	cur      []byte // what is left of slabs[curSlab]
	curSlab  int
	// free is a stack of slabs recycled by Reset with the earliest-allocated
	// (smallest) on top, so a refill walks the same sizes in the same order
	// as the fill that created them. Recycled slabs are dirty: whoever grabs
	// bytes overwrites them.
	free [][]byte
	// regions heads the lists of released regions, by size class: class k
	// holds capacities in [2^k, 2^(k+1)), as a ref plus one (zero is an empty
	// list). The list node — the next region and this one's capacity — is
	// written into the released region itself, so the lists cost nothing
	// beyond these heads.
	regions [32]ref
	// scratch is where a fold grows an element past its region before
	// SetElem places the result (Table.Scratch). It is heap memory of its
	// own, not a slab's, grows in powers of two up to minSlabSize as folds
	// ask for more, and survives Reset: it holds an element only from
	// Scratch to SetElem.
	scratch []byte
}

// minRegion is the smallest region worth releasing: it must hold its list
// node.
const minRegion = 16

// DefaultSlabSize is 256 KB: big enough to amortize slab overhead, small
// enough that a nearly-empty arena doesn't distort memory accounting.
const DefaultSlabSize = 256 << 10

// minSlabSize is the first slab of a fresh arena.
const minSlabSize = 4 << 10

// NewArena returns an arena whose slabs grow up to slabSize
// (DefaultSlabSize if slabSize <= 0).
func NewArena(slabSize int) *Arena {
	if slabSize <= 0 {
		slabSize = DefaultSlabSize
	}
	return &Arena{slabSize: slabSize, next: min(minSlabSize, slabSize)}
}

// ref addresses arena bytes without a pointer: the number of the slab (its
// place in slabs since the last Reset) in the high half, the offset into it
// in the low half. Table entries hold refs, so the collector has nothing to
// scan in them; a ref is void after the arena's Reset like any slice into it.
type ref uint64

// at returns the n bytes at r, with capacity c. A zero-capacity region is
// nil: nothing was ever grabbed for it.
func (a *Arena) at(r ref, n, c uint32) []byte {
	if c == 0 {
		return nil
	}
	off := uint32(r)
	return a.slabs[r>>32][off : off+n : off+c]
}

func (a *Arena) copyRef(b []byte) (ref, []byte) {
	r, out := a.grab(len(b))
	copy(out, b)
	return r, out
}

// scratchCopy returns b copied into the arena's scratch, with capacity for
// at least n bytes; n is at most minSlabSize.
func (a *Arena) scratchCopy(b []byte, n int) []byte {
	if cap(a.scratch) < n {
		a.scratch = make([]byte, 1<<bits.Len(uint(n-1)))
	}
	return append(a.scratch[:0], b...)
}

// grab returns n bytes of arena memory with arbitrary contents, and where
// they are.
func (a *Arena) grab(n int) (ref, []byte) {
	if n <= 0 {
		return 0, nil
	}
	if n > a.slabSize {
		// Oversized allocation gets a dedicated slab.
		slab := make([]byte, n)
		a.slabs = append(a.slabs, slab)
		return ref(len(a.slabs)-1) << 32, slab
	}
	// A recycled slab too small for n is passed over but stays in slabs, so
	// the next Reset puts it back where it was.
	for len(a.cur) < n {
		if k := len(a.free); k > 0 {
			a.cur = a.free[k-1]
			a.free[k-1] = nil
			a.free = a.free[:k-1]
		} else {
			for a.next < n {
				a.next = min(2*a.next, a.slabSize)
			}
			a.cur = make([]byte, a.next)
			a.next = min(2*a.next, a.slabSize)
		}
		a.slabs = append(a.slabs, a.cur)
		a.curSlab = len(a.slabs) - 1
	}
	off := len(a.slabs[a.curSlab]) - len(a.cur)
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	return ref(a.curSlab)<<32 | ref(off), out
}

// release hands the c-byte region at r back for reuse. Its contents are
// overwritten.
func (a *Arena) release(r ref, c uint32) {
	if c < minRegion {
		return
	}
	k := bits.Len32(c) - 1
	node := a.at(r, 12, c)
	binary.LittleEndian.PutUint64(node, uint64(a.regions[k]))
	binary.LittleEndian.PutUint32(node[8:], c)
	a.regions[k] = r + 1
}

// grabRegion returns a region of at least n bytes, and its capacity: a
// released one if the class whose every region holds n has any, else exactly
// n fresh bytes.
func (a *Arena) grabRegion(n int) (ref, uint32) {
	if k := bits.Len(uint(n - 1)); n >= minRegion && k < len(a.regions) && a.regions[k] != 0 {
		r := a.regions[k] - 1
		node := a.at(r, 12, 12)
		a.regions[k] = ref(binary.LittleEndian.Uint64(node))
		return r, binary.LittleEndian.Uint32(node[8:])
	}
	r, _ := a.grab(n)
	return r, uint32(n)
}

// Reset discards all allocations. Previously returned slices must no longer
// be used. Every slab up to the arena's slab size is kept for reuse, as it
// is — nothing is zeroed; oversized dedicated slabs are released to the
// garbage collector.
func (a *Arena) Reset() {
	for i := len(a.slabs) - 1; i >= 0; i-- {
		if s := a.slabs[i]; len(s) <= a.slabSize {
			a.free = append(a.free, s)
		}
		a.slabs[i] = nil
	}
	a.slabs = a.slabs[:0]
	a.cur = nil
	a.regions = [32]ref{}
}
