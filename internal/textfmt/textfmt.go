// Package textfmt defines the input record formats of the two benchmark
// applications: click-log records (timestamp, user, url) and web-document
// records (doc id, words). Each has a line-oriented text encoding (parsed
// field-by-field, the expensive path) and a compact binary encoding (the
// "SequenceFile" path), which together reproduce the paper's §III.B.1
// parsing-cost experiment.
package textfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Click is one click-stream record.
type Click struct {
	Time uint32
	User uint32
	URL  []byte
}

// AppendClickText appends the text encoding: "<time> u<user> <url>\n".
func AppendClickText(dst []byte, c Click) []byte {
	dst = strconv.AppendUint(dst, uint64(c.Time), 10)
	dst = append(dst, ' ', 'u')
	dst = strconv.AppendUint(dst, uint64(c.User), 10)
	dst = append(dst, ' ')
	dst = append(dst, c.URL...)
	return append(dst, '\n')
}

// parseUint32 parses a base-10 uint32 from b without converting to string
// (strconv.ParseUint(string(b), ...) would allocate once per call, and this
// runs for every field of every text record).
func parseUint32(b []byte) (uint32, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
		if n > math.MaxUint32 {
			return 0, false
		}
	}
	return uint32(n), true
}

// ParseClickText parses one text line (without requiring the trailing
// newline). The returned URL aliases line.
func ParseClickText(line []byte) (Click, error) {
	c, _, _, err := ParseClickFields(line)
	return c, err
}

// ParseClickFields is ParseClickText that also returns the text of the
// timestamp and user ("u<id>") fields, which alias line. A field is
// accepted when it is all digits (after the user's 'u') and its value is at
// most MaxUint32, leading zeros allowed; the line is read in one pass, each
// number up to the space that must end it.
func ParseClickFields(line []byte) (c Click, timeText, userText []byte, err error) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	ts, sp1, ok := leadingUint32(line)
	if !ok || sp1+1 == len(line) || line[sp1+1] != 'u' {
		return Click{}, nil, nil, fmt.Errorf("textfmt: malformed click %q", line)
	}
	user, n, ok := leadingUint32(line[sp1+2:])
	if !ok {
		return Click{}, nil, nil, fmt.Errorf("textfmt: malformed click %q", line)
	}
	sp2 := sp1 + 2 + n
	return Click{Time: ts, User: user, URL: line[sp2+1:]}, line[:sp1], line[sp1+1 : sp2], nil
}

// leadingUint32 parses the digits at the front of b as a base-10 uint32,
// as parseUint32 does, and returns the offset of the byte after them, which
// must be a space.
func leadingUint32(b []byte) (n uint32, sp int, ok bool) {
	var v uint64
	for ; sp < len(b) && b[sp]-'0' <= 9; sp++ {
		if v = v*10 + uint64(b[sp]-'0'); v > math.MaxUint32 {
			return 0, 0, false
		}
	}
	return uint32(v), sp, sp > 0 && sp < len(b) && b[sp] == ' '
}

// AppendClickBinary appends the binary encoding:
// u32 time, u32 user, u16 urlLen, url.
func AppendClickBinary(dst []byte, c Click) []byte {
	var hdr [10]byte
	binary.LittleEndian.PutUint32(hdr[0:], c.Time)
	binary.LittleEndian.PutUint32(hdr[4:], c.User)
	binary.LittleEndian.PutUint16(hdr[8:], uint16(len(c.URL)))
	dst = append(dst, hdr[:]...)
	return append(dst, c.URL...)
}

// ParseClickBinary decodes one binary click from the front of buf,
// returning the bytes consumed (0 if buf is too short).
func ParseClickBinary(buf []byte) (Click, int) {
	if len(buf) < 10 {
		return Click{}, 0
	}
	urlLen := int(binary.LittleEndian.Uint16(buf[8:]))
	if len(buf) < 10+urlLen {
		return Click{}, 0
	}
	return Click{
		Time: binary.LittleEndian.Uint32(buf[0:]),
		User: binary.LittleEndian.Uint32(buf[4:]),
		URL:  buf[10 : 10+urlLen],
	}, 10 + urlLen
}

// NextLine splits buf at the first newline, returning the line (without the
// newline) and the rest. ok=false when buf holds no complete line; callers
// treat a non-empty remainder without '\n' as a final unterminated line.
func NextLine(buf []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return nil, buf, false
	}
	return buf[:i], buf[i+1:], true
}

// Doc is one web-document record: an id and its word tokens.
type Doc struct {
	ID    uint32
	Words [][]byte
}

// ParseDocTextInto parses one document line, "d<id> w w w ...", into a
// caller-supplied word slice that is truncated and reused, so a streaming
// parser allocates nothing per record once the slice has grown to the widest
// document. The returned Doc.Words aliases both words and line.
func ParseDocTextInto(line []byte, words [][]byte) (Doc, error) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	if len(line) == 0 || line[0] != 'd' {
		return Doc{}, fmt.Errorf("textfmt: malformed doc %q", line)
	}
	idField := line
	rest := []byte(nil)
	if sp := bytes.IndexByte(line, ' '); sp >= 0 {
		idField, rest = line[:sp], line[sp+1:]
	}
	id, ok := parseUint32(idField[1:])
	if !ok {
		return Doc{}, fmt.Errorf("textfmt: bad doc id in %q", line)
	}
	words = words[:0]
	for len(rest) > 0 {
		sp := bytes.IndexByte(rest, ' ')
		if sp < 0 {
			words = append(words, rest)
			break
		}
		words = append(words, rest[:sp])
		rest = rest[sp+1:]
	}
	return Doc{ID: id, Words: words}, nil
}
