package textfmt

import (
	"bytes"
	"fmt"
)

// refParseClickText is the former ParseClickText, kept verbatim as the
// oracle for the one-pass parser: it finds the two spaces first, then
// parses the fields between them.
func refParseClickText(line []byte) (Click, error) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 {
		return Click{}, fmt.Errorf("textfmt: malformed click %q", line)
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ')
	if sp2 < 0 {
		return Click{}, fmt.Errorf("textfmt: malformed click %q", line)
	}
	sp2 += sp1 + 1
	ts, ok := parseUint32(line[:sp1])
	if !ok {
		return Click{}, fmt.Errorf("textfmt: bad timestamp in %q", line)
	}
	userField := line[sp1+1 : sp2]
	if len(userField) < 2 || userField[0] != 'u' {
		return Click{}, fmt.Errorf("textfmt: bad user in %q", line)
	}
	user, ok := parseUint32(userField[1:])
	if !ok {
		return Click{}, fmt.Errorf("textfmt: bad user in %q", line)
	}
	return Click{Time: ts, User: user, URL: line[sp2+1:]}, nil
}
