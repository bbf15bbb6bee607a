package kv

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

//go:generate go run gen_sort.go

// Buffer is the map-side output buffer: raw pair bytes in one flat array
// plus one reference per pair carrying its partition — the byte-array
// layout Hadoop sorts on the compound (partition, key) before writing the
// map output file (§II.A).
type Buffer struct {
	data []byte
	refs []ref

	// ents is the sort scratch, built at sort time and kept across Reset so
	// a recycled buffer sorts without allocating; engines that never sort
	// never pay for it. idxs (Indices) and combined (Combined) are scratch
	// of the same kind, made on first use and recycled with the buffer.
	ents     []sortEntry
	idxs     []int
	combined *Buffer
}

type ref struct {
	part       int32
	off        int32
	klen, vlen int32
}

// sortEntry is the 16-byte sort element: the pair's partition, its key's
// normalized prefix (keyPrefix), and the pair's index in refs. (part, prefix)
// decides almost every comparison as two integer compares; the key bytes
// behind idx are read only when both tie on keys longer than the prefix
// holds.
type sortEntry struct {
	prefix uint64
	part   int32
	idx    int32
}

// keyPrefix returns k's normalized key: its first seven bytes, big-endian
// and zero-padded on the right, above a low byte holding min(len(k), 8).
// Unequal prefixes order exactly as the keys do under bytes.Compare — where
// the seven bytes tie, the shorter key is the longer one's prefix followed by
// zero bytes, and sorts first as its smaller length byte says. Equal prefixes
// with prefixDecides mean equal keys; otherwise both keys run past the seven
// bytes and the caller falls back to comparing them in full.
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)&^0xff | 8
	}
	p := uint64(len(k))
	for i, c := range k {
		p |= uint64(c) << (56 - 8*uint(i))
	}
	return p
}

// prefixAt returns keyPrefix(buf[off:off+n]). Where buf holds eight bytes
// from off it loads them as one word and masks off what follows the key, so
// a short key costs no byte loop.
func prefixAt(buf []byte, off, n int) uint64 {
	if n >= 8 || off+8 > len(buf) {
		return keyPrefix(buf[off : off+n])
	}
	return binary.BigEndian.Uint64(buf[off:])&^(^uint64(0)>>(8*uint(n))) | uint64(n)
}

// prefixDecides reports whether p holds its whole key (at most seven bytes),
// so that a key with an equal prefix is an equal key.
func prefixDecides(p uint64) bool { return p&0xff < 8 }

// NewBuffer returns an empty buffer with an initial byte capacity hint.
func NewBuffer(capBytes int) *Buffer {
	if capBytes < 0 {
		capBytes = 0
	}
	return &Buffer{data: make([]byte, 0, capBytes)}
}

// Add appends one pair destined for partition p.
func (b *Buffer) Add(p int, key, val []byte) {
	off := int32(len(b.data))
	b.data = append(b.data, key...)
	b.data = append(b.data, val...)
	b.refs = append(b.refs, ref{part: int32(p), off: off, klen: int32(len(key)), vlen: int32(len(val))})
}

// ReservePairs makes room for n more pairs' references, so a buffer whose
// pair count is known up front fills without regrowing them.
func (b *Buffer) ReservePairs(n int) { b.refs = slices.Grow(b.refs, n) }

// Len returns the number of pairs buffered.
func (b *Buffer) Len() int { return len(b.refs) }

// Bytes returns the payload byte volume (keys + values).
func (b *Buffer) Bytes() int64 { return int64(len(b.data)) }

// Key returns the i-th pair's key (aliasing the buffer).
func (b *Buffer) Key(i int) []byte {
	r := b.refs[i]
	return b.data[r.off : r.off+r.klen]
}

// Val returns the i-th pair's value (aliasing the buffer).
func (b *Buffer) Val(i int) []byte {
	r := b.refs[i]
	return b.data[r.off+r.klen : r.off+r.klen+r.vlen]
}

// Partition returns the i-th pair's partition.
func (b *Buffer) Partition(i int) int { return int(b.refs[i].part) }

// Reset clears the buffer for reuse, keeping capacity (all scratch
// included).
func (b *Buffer) Reset() {
	b.data = b.data[:0]
	b.refs = b.refs[:0]
}

// Indices returns n ints of scratch for lists of pair indices (a chunk's,
// for SortIndices), grown to the refs capacity like the sort entries and
// kept across Reset, so a recycled buffer stops allocating after its first
// use. Their contents are undefined, and they alias the scratch a later
// Indices call returns.
func (b *Buffer) Indices(n int) []int {
	if cap(b.idxs) < n {
		b.idxs = make([]int, n, max(n, cap(b.refs)))
	}
	return b.idxs[:n]
}

// Combined returns an empty second buffer held by b, for the pairs a
// combiner derives from b's: it is kept across Reset, so it recycles with b
// and is b's owner's for exactly as long as b is.
func (b *Buffer) Combined() *Buffer {
	if b.combined == nil {
		b.combined = NewBuffer(0)
	}
	b.combined.Reset()
	return b.combined
}

// SortByPartitionKey sorts pairs by (partition, key), counting key
// comparisons into counter — the CPU the paper's Table II attributes to
// map-side sorting. Pairs equal on both keep insertion order.
func (b *Buffer) SortByPartitionKey(counter *int64) {
	es := b.entries(len(b.refs))
	var all uint64
	for i := range es {
		es[i] = b.entry(i)
		all |= es[i].prefix
	}
	b.sortEntries(es, prefixDecides(all), counter)
	// Apply the permutation in place: position i takes the ref at es[i].idx.
	// Each cycle is walked once; a visited entry is marked by pointing it at
	// itself.
	for i := range es {
		if int(es[i].idx) == i {
			continue
		}
		first := b.refs[i]
		for j := i; ; {
			src := int(es[j].idx)
			es[j].idx = int32(j)
			if src == i {
				b.refs[j] = first
				break
			}
			b.refs[j] = b.refs[src]
			j = src
		}
	}
}

// SortIndices sorts idxs — pair indices, normally all of one partition —
// the way SortByPartitionKey orders the whole buffer, leaving the buffer
// itself untouched: MapReduce Online's per-chunk sort.
func (b *Buffer) SortIndices(idxs []int, counter *int64) {
	es := b.entries(len(idxs))
	var all uint64
	for i, idx := range idxs {
		es[i] = b.entry(idx)
		all |= es[i].prefix
	}
	b.sortEntries(es, prefixDecides(all), counter)
	for i, e := range es {
		idxs[i] = int(e.idx)
	}
}

// entry builds pair i's sort entry.
func (b *Buffer) entry(i int) sortEntry {
	r := b.refs[i]
	return sortEntry{prefix: prefixAt(b.data, int(r.off), int(r.klen)), part: r.part, idx: int32(i)}
}

// entries returns n sort entries of scratch, grown to the refs capacity so
// a recycled buffer stops allocating after its first sort.
func (b *Buffer) entries(n int) []sortEntry {
	if cap(b.ents) < n {
		b.ents = make([]sortEntry, n, max(n, cap(b.refs)))
	}
	return b.ents[:n]
}

// sortEntries sorts es by (partition, key, index) with kv's own pdqsort:
// zsort.go, generated by gen_sort.go from the Go 1.24.0 standard library's.
// The comparator call sequence is the cost model (one charged comparison
// per call), so that algorithm and its call order may not change; what one
// call costs may. short says every key fits its prefix (the OR of all
// prefixes has a length byte below 8), so (partition, prefix, index)
// decides every comparison inline; otherwise a prefix tie on long keys
// compares the key bytes. The index tie-break makes the order total, hence
// equal to a stable sort's.
func (b *Buffer) sortEntries(es []sortEntry, short bool, counter *int64) {
	s := entrySorter{b: b}
	if short {
		s.pdqsortShort(es, 0, len(es), bits.Len(uint(len(es))))
	} else {
		s.pdqsortLong(es, 0, len(es), bits.Len(uint(len(es))))
	}
	if counter != nil {
		*counter += s.calls
	}
}

// entrySorter is one sort's comparator state: the buffer behind the
// entries and the comparisons made so far.
type entrySorter struct {
	b     *Buffer
	calls int64
}

// lessShort orders entries whose keys all fit their prefixes, where equal
// prefixes are equal keys. It is small enough to inline into every loop of
// pdqsortShort.
func (s *entrySorter) lessShort(x, y sortEntry) bool {
	s.calls++
	if x.part != y.part {
		return x.part < y.part
	}
	if x.prefix != y.prefix {
		return x.prefix < y.prefix
	}
	return x.idx < y.idx
}

// lessLong is lessShort for a buffer holding keys longer than the prefix:
// a prefix tie on such keys is broken by the key bytes.
func (s *entrySorter) lessLong(x, y sortEntry) bool {
	s.calls++
	if x.part != y.part {
		return x.part < y.part
	}
	if x.prefix != y.prefix {
		return x.prefix < y.prefix
	}
	if !prefixDecides(x.prefix) {
		return s.keyLess(x, y)
	}
	return x.idx < y.idx
}

// keyLess orders two entries of one partition with equal, undeciding
// prefixes by key bytes, then index.
func (s *entrySorter) keyLess(x, y sortEntry) bool {
	b := s.b
	rx, ry := b.refs[x.idx], b.refs[y.idx]
	if c := bytes.Compare(b.data[rx.off:rx.off+rx.klen], b.data[ry.off:ry.off+ry.klen]); c != 0 {
		return c < 0
	}
	return x.idx < y.idx
}
