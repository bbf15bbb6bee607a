package workloads

import (
	"bytes"
	"cmp"
	"slices"

	"onepass/internal/engine"
)

// refSessionizeReducer is the former sessionizeReducer, kept verbatim as the
// oracle for the packed-word reducer: it parses every click into a
// {ts, url} struct, sorts the structs through a (ts, url) comparator and
// re-formats every timestamp. Sessionization's output is part of every
// checksum the engines are held to, so the new reducer must emit exactly
// these bytes for every group (sessionize_test.go).
type refSessionClick struct {
	ts  uint64
	url []byte
}

func refSessionizeReducer() engine.ReduceFunc {
	var clicks []refSessionClick
	var out []byte
	return func(key []byte, vals [][]byte, emit engine.Emit) {
		if cap(clicks) < len(vals) {
			clicks = make([]refSessionClick, 0, len(vals))
		}
		clicks = clicks[:0]
		outLen := 0 // a click is written as long as it was read: ' ' becomes '@', plus a separator
		for _, v := range vals {
			sp := bytes.IndexByte(v, ' ')
			if sp < 0 {
				continue
			}
			clicks = append(clicks, refSessionClick{ts: parseUint(v[:sp]), url: v[sp+1:]})
			outLen += len(v) + 1
		}
		if cap(out) < outLen {
			out = make([]byte, 0, outLen)
		}
		slices.SortFunc(clicks, func(a, b refSessionClick) int {
			if a.ts != b.ts {
				return cmp.Compare(a.ts, b.ts)
			}
			return bytes.Compare(a.url, b.url)
		})
		out = out[:0]
		for i, c := range clicks {
			if i > 0 {
				if c.ts-clicks[i-1].ts > SessionGap {
					out = append(out, '|')
				} else {
					out = append(out, ',')
				}
			}
			out = appendUint(out, c.ts)
			out = append(out, '@')
			out = append(out, c.url...)
		}
		emit(key, out)
		// vals may alias the reduce side's input buffers; stale url slices
		// left in the scratch would keep those alive long after their merge.
		clear(clicks)
	}
}

// refClickMaps are the former text click maps, which parse every record
// and re-format its timestamp and user: the oracle for the maps that copy
// canonical fields verbatim (FuzzClickMapVerbatim). Each maps one record
// to its one emitted pair, ok=false where the record is skipped.
var refClickMaps = map[string]func(rec []byte) (key, val []byte, ok bool){
	"sessionization": func(rec []byte) ([]byte, []byte, bool) {
		c, ok := parseClick(rec, false)
		if !ok {
			return nil, nil, false
		}
		val := appendUint(nil, uint64(c.Time))
		val = append(val, ' ')
		return appendUser(nil, c.User), append(val, c.URL...), true
	},
	"windowed-sessionization": func(rec []byte) ([]byte, []byte, bool) {
		c, ok := parseClick(rec, false)
		if !ok {
			return nil, nil, false
		}
		key := appendUser(nil, c.User)
		key = append(key, '@')
		key = appendUint(key, uint64(c.Time/DefaultSessionWindow))
		val := appendUint(nil, uint64(c.Time))
		val = append(val, ' ')
		return key, append(val, c.URL...), true
	},
	"per-user-count": func(rec []byte) ([]byte, []byte, bool) {
		c, ok := parseClick(rec, false)
		if !ok {
			return nil, nil, false
		}
		return appendUser(nil, c.User), []byte{'1'}, true
	},
}
