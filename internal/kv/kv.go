// Package kv defines the key-value record model shared by all engines:
// a compact length-prefixed encoding, a byte-array map-output buffer that
// sorts by (partition, key) exactly like Hadoop's map-side buffer, counted
// byte-string comparison (the engines charge CPU per real comparison), and
// a k-way merge over sorted pair streams.
package kv

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// AppendPair appends the encoding of (key, val) to dst and returns dst.
// Layout: uvarint(klen) uvarint(vlen) key val.
func AppendPair(dst, key, val []byte) []byte {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(val)))
	dst = append(dst, hdr[:n]...)
	dst = append(dst, key...)
	dst = append(dst, val...)
	return dst
}

// AppendTaggedPair appends the encoding of (key, tag+payload) — a pair whose
// value is payload behind a one-byte tag — without first materialising the
// tagged value.
func AppendTaggedPair(dst, key []byte, tag byte, payload []byte) []byte {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)+1))
	dst = append(dst, hdr[:n]...)
	dst = append(dst, key...)
	dst = append(dst, tag)
	return append(dst, payload...)
}

// EncodedSize returns the encoded size of (key, val).
func EncodedSize(key, val []byte) int {
	return uvarintLen(uint64(len(key))) + uvarintLen(uint64(len(val))) + len(key) + len(val)
}

// DecodePair decodes one pair from the front of buf. It returns n=0 when
// buf does not hold a complete pair (clean EOF or a partial record at a
// chunk boundary); otherwise n is the encoded length consumed.
func DecodePair(buf []byte) (key, val []byte, n int) {
	klen, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, 0
	}
	vlen, v := binary.Uvarint(buf[k:])
	if v <= 0 {
		return nil, nil, 0
	}
	// Compared as unsigned against what is left, so a damaged length field
	// too large for an int reads as an incomplete pair, not a negative total.
	rest := uint64(len(buf) - k - v)
	if klen > rest || vlen > rest-klen {
		return nil, nil, 0
	}
	total := k + v + int(klen) + int(vlen)
	key = buf[k+v : k+v+int(klen)]
	val = buf[k+v+int(klen) : total]
	return key, val, total
}

// CountPairs returns the number of complete encoded pairs at the front of
// buf — a cheap pre-scan (length fields only, no payload work) that lets
// charge sites know record counts before a pooled closure has processed
// the data.
func CountPairs(buf []byte) int {
	n := 0
	for len(buf) > 0 {
		_, _, sz := DecodePair(buf)
		if sz == 0 {
			return n
		}
		buf = buf[sz:]
		n++
	}
	return n
}

// Compare compares two byte-string keys, incrementing *counter once per
// call (a proxy for real comparison cost, charged to virtual CPU by the
// engines). A nil counter is allowed.
func Compare(a, b []byte, counter *int64) int {
	if counter != nil {
		// Cost model: one comparison operation; byte-length effects are
		// second-order, so count operations, not bytes.
		*counter++
	}
	return bytes.Compare(a, b)
}

// Decoder iterates the pairs of one encoded byte buffer.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Next returns the next pair; ok=false at end of buffer.
func (d *Decoder) Next() (key, val []byte, ok bool) {
	key, val, n := DecodePair(d.buf[d.off:])
	if n == 0 {
		return nil, nil, false
	}
	d.off += n
	return key, val, true
}

// Remaining returns the undecoded byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// PairStream is a peekable stream of key-value pairs, the interface the
// k-way merge and grouping operators consume.
type PairStream interface {
	// Peek returns the current pair without consuming it; ok=false at end.
	Peek() (key, val []byte, ok bool)
	// Advance consumes the current pair.
	Advance()
}

// SliceStream streams an in-memory encoded buffer.
type SliceStream struct {
	dec              *Decoder
	curKey, curVal   []byte
	valid, exhausted bool
}

// NewSliceStream returns a stream over encoded pairs in buf.
func NewSliceStream(buf []byte) *SliceStream {
	return &SliceStream{dec: NewDecoder(buf)}
}

// Peek implements PairStream.
func (s *SliceStream) Peek() ([]byte, []byte, bool) {
	if !s.valid && !s.exhausted {
		s.curKey, s.curVal, s.valid = s.dec.Next()
		if !s.valid {
			s.exhausted = true
		}
	}
	return s.curKey, s.curVal, s.valid
}

// Advance implements PairStream.
func (s *SliceStream) Advance() { s.valid = false }

// mergeHead caches one stream's current pair for the merge heap, so a heap
// comparison reads two cached prefixes instead of making two interface Peek
// calls. key and val alias the stream and stay valid until that stream is
// advanced and peeked again — which happens only when its head is replaced.
type mergeHead struct {
	prefix   uint64
	key, val []byte
}

// MergeStreams merges sorted streams into emit in ascending key order,
// using a tournament among current heads; comparisons are counted into
// counter. Ties are broken by stream index, so merging is stable across
// runs — the order Hadoop's merge produces.
func MergeStreams(streams []PairStream, counter *int64, emit func(key, val []byte)) {
	// Binary heap over stream indices keyed by their cached heads. The sift
	// sequence is the cost model (one charged comparison per less call) and
	// must not change; only what one call costs may.
	heads := make([]mergeHead, len(streams))
	h := make([]int, 0, len(streams))
	var calls int64
	less := func(a, b int) bool {
		calls++
		ha, hb := &heads[a], &heads[b]
		if ha.prefix != hb.prefix {
			return ha.prefix < hb.prefix
		}
		if !prefixDecides(ha.prefix) {
			if c := bytes.Compare(ha.key, hb.key); c != 0 {
				return c < 0
			}
		}
		return a < b
	}
	// load caches stream i's current pair, reporting false at end of stream.
	load := func(i int) bool {
		k, v, ok := streams[i].Peek()
		if ok {
			heads[i] = mergeHead{prefix: keyPrefix(k), key: k, val: v}
		}
		return ok
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && less(h[l], h[small]) {
				small = l
			}
			if r < len(h) && less(h[r], h[small]) {
				small = r
			}
			if small == i {
				return
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
	}
	up := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(h[i], h[parent]) {
				return
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	}
	for i := range streams {
		if load(i) {
			h = append(h, i)
			up(len(h) - 1)
		}
	}
	for len(h) > 0 {
		top := h[0]
		emit(heads[top].key, heads[top].val)
		streams[top].Advance()
		if load(top) {
			down(0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) > 0 {
				down(0)
			}
		}
	}
	if counter != nil {
		*counter += calls
	}
}

// Grouper accumulates consecutive equal-key pairs and hands each completed
// group to a callback. It keeps the slices it is handed: every PairStream
// decodes a fixed buffer (an in-memory segment or an immutable run file), so
// a key or value stays valid and unmoved until its group is flushed.
// Callbacks must not retain vals past their return.
type Grouper struct {
	key  []byte // current group's key
	vals [][]byte
	have bool
}

// Add feeds one pair in sorted order. When k starts a new group, the
// previous group is flushed to fn first. Comparisons are counted into
// counter (nil allowed).
func (g *Grouper) Add(k, v []byte, counter *int64, fn func(key []byte, vals [][]byte)) {
	if !g.have || Compare(g.key, k, counter) != 0 {
		g.Flush(fn)
		g.key, g.have = k, true
	}
	if len(g.vals) == cap(g.vals) {
		// Double: append's 1.25x steps allocate ~5x a hot key's group.
		g.vals = slices.Grow(g.vals, len(g.vals)+1)
	}
	g.vals = append(g.vals, v)
}

// Flush emits the pending group, if any.
func (g *Grouper) Flush(fn func(key []byte, vals [][]byte)) {
	if !g.have {
		return
	}
	fn(g.key, g.vals)
	g.vals = g.vals[:0]
	g.have = false
}
