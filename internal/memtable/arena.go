// Package memtable is the paper's byte-array memory-management library
// (§V): an arena allocator, an open-addressing hash table whose keys live in
// arena slabs, and a chunked list store for per-key growable state. The
// point in the paper was to avoid per-object JVM overhead; here it gives the
// same flat-memory layout plus the exact byte accounting the hash engines
// need to decide when a reducer's in-memory state exceeds its budget and
// something must spill.
package memtable

// Arena is a slab allocator. Allocations are never freed individually;
// Reset recycles all slabs at once (the lifetime pattern of a task's
// in-memory state). Slabs start at minSlabSize and double up to the
// arena's slab size, so an arena that ends up holding a few keys costs a few
// kilobytes and one that holds a task's whole working set still amortizes
// its slab overhead.
type Arena struct {
	slabSize int
	next     int // size of the next slab to come from the host
	slabs    [][]byte
	cur      []byte
	used     int64
	// free is a stack of slabs recycled by Reset with the earliest-allocated
	// (smallest) on top, so a refill walks the same sizes in the same order
	// as the fill that created them. Recycled slabs are dirty: Alloc zeroes
	// what it hands out, Copy overwrites it.
	free [][]byte
}

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

// Alloc returns a zeroed n-byte slice inside the arena.
func (a *Arena) Alloc(n int) []byte {
	out := a.grab(n)
	clear(out)
	return out
}

// Copy allocates and fills a copy of b.
func (a *Arena) Copy(b []byte) []byte {
	out := a.grab(len(b))
	copy(out, b)
	return out
}

// grab returns n bytes of arena memory with arbitrary contents.
func (a *Arena) grab(n int) []byte {
	if n <= 0 {
		return nil
	}
	a.used += int64(n)
	if n > a.slabSize {
		// Oversized allocation gets a dedicated slab.
		slab := make([]byte, n)
		a.slabs = append(a.slabs, slab)
		return slab
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
	}
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	return out
}

// Used returns total bytes handed out since the last Reset.
func (a *Arena) Used() int64 { return a.used }

// Footprint returns the capacity of the slabs in use since the last Reset.
func (a *Arena) Footprint() int64 {
	var t int64
	for _, s := range a.slabs {
		t += int64(len(s))
	}
	return t
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
	a.used = 0
}
