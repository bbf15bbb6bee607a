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
	if len(key) < 0x80 && len(val) < 0x80 {
		// Both lengths fit one varint byte: the common short pair.
		dst = append(dst, byte(len(key)), byte(len(val)))
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(key)))
		dst = binary.AppendUvarint(dst, uint64(len(val)))
	}
	dst = append(dst, key...)
	return append(dst, val...)
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
	if len(buf) >= 2 && buf[0] < 0x80 && buf[1] < 0x80 {
		// Both lengths fit one varint byte: the common short pair.
		kl, total := 2+int(buf[0]), 2+int(buf[0])+int(buf[1])
		if total > len(buf) {
			return nil, nil, 0
		}
		return buf[2:kl], buf[kl:total], total
	}
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

// shortPair is DecodePair's common case, the pair whose lengths both fit
// one varint byte, for a hot loop to inline ahead of the DecodePair call;
// n is 0 where DecodePair has to decide. (DecodePair keeps its own copy:
// calling this from it costs the codec ~10 %.)
func shortPair(buf []byte) (key, val []byte, n int) {
	if len(buf) >= 2 && buf[0] < 0x80 && buf[1] < 0x80 {
		kl, total := 2+int(buf[0]), 2+int(buf[0])+int(buf[1])
		if total <= len(buf) {
			return buf[2:kl], buf[kl:total], total
		}
	}
	return nil, nil, 0
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

// PairStream is a peekable stream of key-value pairs, the interface the
// k-way merge and grouping operators consume.
type PairStream interface {
	// Peek returns the current pair without consuming it; ok=false at end.
	Peek() (key, val []byte, ok bool)
	// Advance consumes the current pair.
	Advance()
}

// SliceStream streams an in-memory encoded buffer. It holds its decoder by
// value, so a stream is one allocation.
type SliceStream struct {
	dec              Decoder
	curKey, curVal   []byte
	valid, exhausted bool
}

// NewSliceStream returns a stream over encoded pairs in buf.
func NewSliceStream(buf []byte) *SliceStream {
	return &SliceStream{dec: Decoder{buf: buf}}
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

// SliceStreams returns one stream per buffer, the buffers of each list in
// order: every stream in one slab beside the list that holds them, two
// allocations however many buffers there are.
func SliceStreams(bufs ...[][]byte) []PairStream {
	n := 0
	for _, list := range bufs {
		n += len(list)
	}
	slab := make([]SliceStream, n)
	out := make([]PairStream, n)
	i := 0
	for _, list := range bufs {
		for _, buf := range list {
			slab[i].dec.buf = buf
			out[i] = &slab[i]
			i++
		}
	}
	return out
}

// MergeScratch is the reusable state of MergeGroups: the heap, each
// stream's cached head and the current group's values. One scratch serves
// any number of merges that never overlap; a merge suspended inside a
// stream's Peek is still running, and another merge meanwhile needs a
// scratch of its own.
type MergeScratch struct {
	heads []mergeHead
	heap  []heapEntry
	vals  [][]byte
}

// mergeHead caches one stream's current pair. key and val alias the stream
// and stay valid until the merge ends: every stream decodes a fixed buffer
// (an in-memory segment or an immutable run file). An in-memory SliceStream
// is decoded here, from rest; any other stream is read through src.
type mergeHead struct {
	key, val []byte
	rest     []byte
	src      PairStream
}

// heapEntry is one heap slot: a stream index and its head key's normalized
// prefix, so a heap comparison reads two adjacent slots and touches a head
// only when the prefixes tie on keys longer than the prefix holds.
type heapEntry struct {
	prefix uint64
	i      int
}

// load caches stream i's next pair in its head and returns its key's
// normalized prefix, reporting false at end of stream.
func (s *MergeScratch) load(i int) (prefix uint64, ok bool) {
	hd := &s.heads[i]
	if hd.src != nil {
		k, v, ok := hd.src.Peek()
		if !ok {
			return 0, false
		}
		hd.key, hd.val = k, v
		return keyPrefix(k), true
	}
	r := hd.rest
	k, v, n := shortPair(r)
	if n > 0 {
		hd.key, hd.val, hd.rest = k, v, r[n:]
		return prefixAt(r, 2, len(k)), true
	}
	if k, v, n = DecodePair(r); n == 0 {
		return 0, false
	}
	hd.key, hd.val, hd.rest = k, v, r[n:]
	return keyPrefix(k), true
}

// less is the heap order: key, then stream index. Every call is one charged
// comparison, counted by the caller. Unequal prefixes decide it inline; only
// a prefix tie pays a call.
func (s *MergeScratch) less(a, b heapEntry) bool {
	if a.prefix != b.prefix {
		return a.prefix < b.prefix
	}
	return s.tie(a, b)
}

// tie is less for two entries with equal prefixes.
func (s *MergeScratch) tie(a, b heapEntry) bool {
	if !prefixDecides(a.prefix) {
		if c := bytes.Compare(s.heads[a.i].key, s.heads[b.i].key); c != 0 {
			return c < 0
		}
	}
	return a.i < b.i
}

// down sifts slot i down and returns the comparisons it made. The sifted
// entry stays in hand and is stored once, where it comes to rest; each
// level compares the left child with it, then the right child with the
// smaller of the two.
func (s *MergeScratch) down(i int) (calls int64) {
	h := s.heap
	x := h[i]
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		small, sv := i, x
		calls++
		if s.less(h[l], x) {
			small, sv = l, h[l]
		}
		if r := l + 1; r < len(h) {
			calls++
			if s.less(h[r], sv) {
				small, sv = r, h[r]
			}
		}
		if small == i {
			break
		}
		h[i] = sv
		i = small
	}
	h[i] = x
	return calls
}

// up sifts slot i up and returns the comparisons it made.
func (s *MergeScratch) up(i int) (calls int64) {
	h := s.heap
	for i > 0 {
		parent := (i - 1) / 2
		calls++
		if !s.less(h[i], h[parent]) {
			return calls
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return calls
}

// MergeGroups merges sorted streams in ascending key order and hands fn
// each run of equal keys, using a tournament among current heads;
// comparisons are counted into counter. Ties are broken by stream index, so
// merging is stable across runs — the order Hadoop's merge produces. fn gets
// the run's first key and its values in merge order, all aliasing the
// streams, and must not keep vals past its return. A run ends where the next
// head's prefix differs from the run's or, for keys longer than the prefix
// holds, where their bytes do; finding it charges nothing.
//
// The merge consumes every stream, peeking them in the order a pair-by-pair
// merge does, so a stream that suspends to refill (a sortmerge.Stream) is
// read at the same points.
func MergeGroups(streams []PairStream, counter *int64, s *MergeScratch, fn func(key []byte, vals [][]byte)) {
	// Binary heap over stream indices keyed by their cached heads. The sift
	// sequence is the cost model (one charged comparison per less call) and
	// must not change; only what one call costs may.
	if cap(s.heads) < len(streams) {
		s.heads = make([]mergeHead, len(streams))
		s.heap = make([]heapEntry, 0, len(streams))
	}
	s.heads, s.heap = s.heads[:len(streams)], s.heap[:0]
	var calls int64
	for i, st := range streams {
		hd := &s.heads[i]
		*hd = mergeHead{src: st}
		var prefix uint64
		var ok bool
		if ss, isSlice := st.(*SliceStream); isSlice {
			// Take the stream over: yield its pending pair, then decode what
			// follows it here.
			hd.key, hd.val, ok = ss.Peek()
			hd.src, hd.rest = nil, ss.dec.buf[ss.dec.off:]
			ss.dec.off, ss.valid, ss.exhausted = len(ss.dec.buf), false, true
			prefix = keyPrefix(hd.key)
		} else {
			prefix, ok = s.load(i)
		}
		if ok {
			s.heap = append(s.heap, heapEntry{prefix, i})
			calls += s.up(len(s.heap) - 1)
		}
	}
	vals := s.vals
	for len(s.heap) > 0 {
		top := s.heap[0]
		key := s.heads[top.i].key
		vals = vals[:0]
		for {
			hd := &s.heads[top.i]
			if len(vals) == cap(vals) {
				// Double: append's 1.25x steps allocate ~5x a hot key's group.
				vals = slices.Grow(vals, len(vals)+1)
			}
			vals = append(vals, hd.val)
			if hd.src != nil {
				hd.src.Advance()
			}
			if prefix, ok := s.load(top.i); ok {
				s.heap[0].prefix = prefix
				calls += s.down(0)
			} else {
				last := len(s.heap) - 1
				s.heap[0] = s.heap[last]
				s.heap = s.heap[:last]
				if last > 0 {
					calls += s.down(0)
				}
			}
			if len(s.heap) == 0 {
				break
			}
			next := s.heap[0]
			if next.prefix != top.prefix || !prefixDecides(next.prefix) && !bytes.Equal(s.heads[next.i].key, key) {
				break
			}
			top = next
		}
		fn(key, vals)
	}
	// Drop the references into the streams' buffers so a kept scratch does
	// not pin them.
	clear(vals[:cap(vals)])
	clear(s.heads)
	s.vals = vals
	if counter != nil {
		*counter += calls
	}
}

// MergeStreams merges sorted streams into emit in ascending key order: the
// MergeGroups loop, with each group's pairs emitted in merge order.
func MergeStreams(streams []PairStream, counter *int64, emit func(key, val []byte)) {
	var s MergeScratch
	MergeGroups(streams, counter, &s, func(key []byte, vals [][]byte) {
		for _, v := range vals {
			emit(key, v)
		}
	})
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
