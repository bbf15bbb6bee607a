package kv

import "encoding/binary"

// Value framing: a length-prefixed concatenation of opaque byte strings —
// the free monoid over a job's raw map-output values. A job that declares no
// Monoid holds a key's values this way wherever a declared job holds a monoid
// element: in the hash and resident engines' per-key state and in the
// incremental re-run path's preserved per-block partials.

// AppendFramed appends uvarint(len(b)) + b to dst and returns dst.
func AppendFramed(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// FramedLen returns how many bytes AppendFramed adds for an n-byte string.
func FramedLen(n int) int { return uvarintLen(uint64(n)) + n }

// NextFrame returns the framed byte string at the front of buf and what
// follows it. ok is false when buf does not start with what AppendFramed
// produces: a whole frame, its length in its shortest encoding. b and rest
// alias buf.
func NextFrame(buf []byte) (b, rest []byte, ok bool) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < l || (n > 1 && buf[n-1] == 0) {
		return nil, buf, false
	}
	return buf[n : n+int(l)], buf[n+int(l):], true
}
