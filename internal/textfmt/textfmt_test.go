package textfmt

import (
	"bytes"
	"strconv"
	"testing"
	"testing/quick"
)

func TestClickTextRoundTrip(t *testing.T) {
	c := Click{Time: 869769600, User: 12345, URL: []byte("/en/page/678")}
	line := AppendClickText(nil, c)
	if line[len(line)-1] != '\n' {
		t.Fatal("missing newline")
	}
	got, err := ParseClickText(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != c.Time || got.User != c.User || !bytes.Equal(got.URL, c.URL) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestClickTextParseWithoutNewline(t *testing.T) {
	got, err := ParseClickText([]byte("100 u7 /x"))
	if err != nil || got.User != 7 || string(got.URL) != "/x" {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestClickTextMalformed(t *testing.T) {
	for _, in := range []string{"", "100", "100 u7", "abc u7 /x", "100 x7 /x", "100 u /x", "100 uZZ /x"} {
		if _, err := ParseClickText([]byte(in)); err == nil {
			t.Errorf("ParseClickText(%q) should fail", in)
		}
	}
}

func TestClickBinaryRoundTrip(t *testing.T) {
	c := Click{Time: 4294967295, User: 0, URL: []byte("/path")}
	buf := AppendClickBinary(nil, c)
	got, n := ParseClickBinary(buf)
	if n != len(buf) {
		t.Fatalf("n = %d, want %d", n, len(buf))
	}
	if got.Time != c.Time || got.User != c.User || !bytes.Equal(got.URL, c.URL) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestClickBinaryShortBuffer(t *testing.T) {
	buf := AppendClickBinary(nil, Click{URL: []byte("/long/url/here")})
	for cut := 0; cut < len(buf); cut++ {
		if _, n := ParseClickBinary(buf[:cut]); n != 0 {
			t.Fatalf("short buffer %d parsed n=%d", cut, n)
		}
	}
}

func TestNextLine(t *testing.T) {
	line, rest, ok := NextLine([]byte("one\ntwo\n"))
	if !ok || string(line) != "one" || string(rest) != "two\n" {
		t.Fatalf("line=%q rest=%q ok=%v", line, rest, ok)
	}
	_, rest, ok = NextLine([]byte("partial"))
	if ok || string(rest) != "partial" {
		t.Fatal("unterminated line must report !ok")
	}
	line, rest, ok = NextLine([]byte("\n"))
	if !ok || len(line) != 0 || len(rest) != 0 {
		t.Fatal("empty line parse failed")
	}
}

func TestDocTextRoundTrip(t *testing.T) {
	got, err := ParseDocTextInto([]byte("d42 alpha beta gamma\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || len(got.Words) != 3 || string(got.Words[2]) != "gamma" {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestDocTextNoWords(t *testing.T) {
	got, err := ParseDocTextInto([]byte("d7\n"), nil)
	if err != nil || got.ID != 7 || len(got.Words) != 0 {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestDocTextMalformed(t *testing.T) {
	for _, in := range []string{"", "x42 w", "dxx w"} {
		if _, err := ParseDocTextInto([]byte(in), nil); err == nil {
			t.Errorf("ParseDocTextInto(%q) should fail", in)
		}
	}
}

// clickEdgeLines are text click lines around the parser's accept/reject
// boundary.
var clickEdgeLines = []string{
	"869769600 u12345 /en/page/678\n",
	"0 u0 ",
	"0100 u007 /a b\n\n",
	"4294967296 u1 /x",
	"4294967295 u4294967295 /max",
	"00000000000000000001 u01 /long-leading-zeros",
	"12345678901 u1 /eleven-digits",
	"1 u42949672950 /x",
	"1 u1",
	"1 u1\n",
	"1  u1 /x",
	"1 u /x",
	"1 u",
	"1 ",
	"1u1 /x",
	" u1 /x",
	"12x3 u1 /x",
	"1 u1x /x",
	"1 x1 /x",
	"+1 u1 /x",
	"1 u1 /x\r",
	"\n",
	"",
}

// checkParseClick holds ParseClickFields to the former parser on line: the
// same lines accepted, the same Click, and the fields' own text.
func checkParseClick(t *testing.T, line []byte) {
	t.Helper()
	c, timeText, userText, err := ParseClickFields(line)
	want, wantErr := refParseClickText(line)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParseClickFields(%q) error %v; former parser %v", line, err, wantErr)
	}
	if err != nil {
		return
	}
	fields := bytes.SplitN(bytes.TrimSuffix(line, []byte("\n")), []byte(" "), 3)
	if c.Time != want.Time || c.User != want.User || !bytes.Equal(c.URL, want.URL) ||
		!bytes.Equal(timeText, fields[0]) || !bytes.Equal(userText, fields[1]) {
		t.Fatalf("ParseClickFields(%q) = %+v, %q, %q; former parser %+v", line, c, timeText, userText, want)
	}
}

func TestParseClickMatchesReference(t *testing.T) {
	for _, line := range clickEdgeLines {
		checkParseClick(t, []byte(line))
	}
}

// FuzzParseClickText parses arbitrary lines: it must not panic, it must
// agree with the former parser (refParseClickText), an accepted line
// re-encoded by AppendClickText must parse to the same Click, and when the
// line's timestamp and user are written as AppendClickText writes them, the
// re-encoding is the line itself (with its newline, if it had none).
func FuzzParseClickText(f *testing.F) {
	for _, line := range clickEdgeLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkParseClick(t, line)
		c, err := ParseClickText(line)
		if err != nil {
			return
		}
		enc := AppendClickText(nil, c)
		got, err := ParseClickText(enc)
		if err != nil || got.Time != c.Time || got.User != c.User || !bytes.Equal(got.URL, c.URL) {
			t.Fatalf("%q re-encoded as %q parses to %+v, %v; want %+v", line, enc, got, err, c)
		}
		fields := bytes.SplitN(line, []byte(" "), 3)
		canonical := string(fields[0]) == strconv.FormatUint(uint64(c.Time), 10) &&
			string(fields[1]) == "u"+strconv.FormatUint(uint64(c.User), 10)
		if canonical && !bytes.Equal(enc[:len(enc)-1], bytes.TrimSuffix(line, []byte("\n"))) {
			t.Fatalf("canonical %q re-encoded as %q", line, enc)
		}
	})
}

// Property: text and binary click encodings round-trip arbitrary records
// (URL constrained to non-space, non-newline bytes as the generator emits).
func TestClickRoundTripProperty(t *testing.T) {
	sanitize := func(url []byte) []byte {
		out := make([]byte, 0, len(url))
		for _, b := range url {
			if b != ' ' && b != '\n' && b >= 33 && b < 127 {
				out = append(out, b)
			}
		}
		return out
	}
	f := func(ts, user uint32, rawURL []byte) bool {
		c := Click{Time: ts, User: user, URL: sanitize(rawURL)}
		gotT, err := ParseClickText(AppendClickText(nil, c))
		if err != nil || gotT.Time != c.Time || gotT.User != c.User || !bytes.Equal(gotT.URL, c.URL) {
			return false
		}
		gotB, n := ParseClickBinary(AppendClickBinary(nil, c))
		return n > 0 && gotB.Time == c.Time && gotB.User == c.User && bytes.Equal(gotB.URL, c.URL)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
