package workloads

import (
	"bytes"
	"slices"
	"testing"

	"onepass/internal/textfmt"
)

func readLines(block []byte) []string {
	var got []string
	LineReader(block, func(rec []byte) { got = append(got, string(rec)) })
	return got
}

func TestLineReaderYieldsUnterminatedLastLine(t *testing.T) {
	for _, tc := range []struct {
		block string
		want  []string
	}{
		{"1 u2 /a\n3 u4 /b", []string{"1 u2 /a", "3 u4 /b"}},
		{"1 u2 /a\n3 u4 /b\n", []string{"1 u2 /a", "3 u4 /b"}},
		{"only", []string{"only"}},
		{"\n\na\n\nb", []string{"a", "b"}},
		{"", nil},
	} {
		if got := readLines([]byte(tc.block)); !slices.Equal(got, tc.want) {
			t.Errorf("LineReader(%q) = %q, want %q", tc.block, got, tc.want)
		}
	}
}

// FuzzLineReader holds LineReader to bytes.Split: the non-empty pieces
// between newlines, in order, the last one whether or not a newline ends it.
func FuzzLineReader(f *testing.F) {
	f.Add([]byte("1 u2 /a\n3 u4 /b"))
	f.Add([]byte("\n\nx\n"))
	f.Fuzz(func(t *testing.T, block []byte) {
		var want []string
		for _, line := range bytes.Split(block, []byte{'\n'}) {
			if len(line) > 0 {
				want = append(want, string(line))
			}
		}
		if got := readLines(block); !slices.Equal(got, want) {
			t.Fatalf("LineReader(%q) = %q, want %q", block, got, want)
		}
	})
}

// FuzzBinaryClickReader feeds arbitrary blocks to BinaryClickReader: it must
// not panic, its records must tile a prefix of the block, each must parse
// whole and re-encode to its own bytes, and the untiled rest must not parse.
func FuzzBinaryClickReader(f *testing.F) {
	var block []byte
	for i, url := range []string{"/a", "", "/longer/url"} {
		block = textfmt.AppendClickBinary(block, textfmt.Click{Time: uint32(100 + i), User: uint32(i), URL: []byte(url)})
	}
	f.Add(block)
	f.Add(block[:len(block)-3])
	f.Fuzz(func(t *testing.T, block []byte) {
		off := 0
		BinaryClickReader(block, func(rec []byte) {
			if !bytes.Equal(rec, block[off:off+len(rec)]) {
				t.Fatalf("record at %d is not the block's next %d bytes", off, len(rec))
			}
			c, n := textfmt.ParseClickBinary(rec)
			if n != len(rec) {
				t.Fatalf("record at %d: parsed %d of %d bytes", off, n, len(rec))
			}
			if enc := textfmt.AppendClickBinary(nil, c); !bytes.Equal(enc, rec) {
				t.Fatalf("record at %d re-encodes to %x, was %x", off, enc, rec)
			}
			off += len(rec)
		})
		if _, n := textfmt.ParseClickBinary(block[off:]); n != 0 {
			t.Fatalf("reader stopped at %d of %d before a parseable record", off, len(block))
		}
	})
}
