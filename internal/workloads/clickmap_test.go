package workloads

import (
	"bytes"
	"testing"

	"onepass/internal/gen"
)

// clickMapEdgeLines are text click records around the verbatim path's
// boundary: fields it copies, fields it must leave to parse-and-format, and
// records both must skip.
var clickMapEdgeLines = []string{
	"869769600 u42 /en/page/1\n",
	"869769600 u42 /en/page/1",      // no trailing newline
	"0 u0 /zero",                    // "0" is canonical
	"0869769600 u042 /lead",         // leading zeros: re-formatted
	"00 u00 /zeros",                 // "00" is not "0"
	"4294967295 u4294967295 /max",   // MaxUint32 in both fields
	"4294967296 u1 /over",           // timestamp above MaxUint32: skipped
	"1 u4294967296 /over",           // user above MaxUint32: skipped
	"99999999999 u1 /eleven-digits", // skipped
	"1 u /bare-u",                   // a bare u: skipped
	"1 x1 /no-u",                    // skipped
	"1 u1 ",                         // an empty url
	"1 u1 /a b  c ",                 // a url with spaces
	"1 u1",                          // no url field: skipped
	"1u1 /a",                        // one space: skipped
	" u1 /a",                        // empty timestamp: skipped
	"12x3 u1 /a",                    // junk timestamp: skipped
	"1 u1x /a",                      // junk user: skipped
	"1 u1 /a\n\n",                   // only the last newline is trimmed
	"1  u1 /a",                      // empty user field: skipped
	"",                              // empty record: skipped
	"\n",                            // skipped
	"+1 u1 /a",                      // sign: skipped
	"1 u+1 /a",                      // skipped
	"1 u1 /a\r",                     // '\r' stays in the url
}

// checkClickMaps runs rec through every text click map and its former
// parse-and-format map, requiring the same one pair from both, or neither.
func checkClickMaps(t *testing.T, rec []byte) {
	t.Helper()
	cfg := gen.DefaultClickConfig()
	cfg.Binary = false
	maps := map[string]*Workload{
		"sessionization":          Sessionization(cfg),
		"windowed-sessionization": WindowedSessionization(cfg, DefaultSessionWindow),
		"per-user-count":          PerUserCount(cfg),
	}
	for name, w := range maps {
		var got [][2][]byte
		w.Job.Map(bytes.Clone(rec), func(k, v []byte) {
			got = append(got, [2][]byte{bytes.Clone(k), bytes.Clone(v)})
		})
		wantK, wantV, ok := refClickMaps[name](bytes.Clone(rec))
		switch {
		case !ok && len(got) != 0:
			t.Fatalf("%s: %q: map emitted %q, former map skips it", name, rec, got)
		case ok && (len(got) != 1 || !bytes.Equal(got[0][0], wantK) || !bytes.Equal(got[0][1], wantV)):
			t.Fatalf("%s: %q: map emitted %q, former map (%q, %q)", name, rec, got, wantK, wantV)
		}
	}
}

func TestClickMapsMatchReference(t *testing.T) {
	for _, line := range clickMapEdgeLines {
		checkClickMaps(t, []byte(line))
	}
	// Every generated record is canonical, so the maps copy its fields.
	cfg := gen.DefaultClickConfig()
	cfg.Binary = false
	LineReader(cfg.Block(0, 64<<10), func(rec []byte) {
		var c clickFields
		if !readClick(&c, rec, false) || c.timeText == nil || c.userText == nil {
			t.Fatalf("generated record %q is not canonical", rec)
		}
		checkClickMaps(t, rec)
	})
}

// FuzzClickMapVerbatim holds each text click map, whose canonical records
// take the verbatim path, to the pair its former parse-and-format map emits
// for the same line, or to skipping it where that map does.
func FuzzClickMapVerbatim(f *testing.F) {
	for _, line := range clickMapEdgeLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		checkClickMaps(t, rec)
	})
}
