package workloads

import (
	"bytes"
	"cmp"
	"math"
	"slices"

	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/textfmt"
)

// SessionGap is the idle threshold that closes a session: 30 minutes.
const SessionGap = 30 * 60

// Sessionization reorders click logs into per-user sessions — the paper's
// headline workload: large intermediate data (map output ≈ input size, all
// of it reorganized by user), no combiner.
func Sessionization(cfg gen.ClickConfig) *Workload {
	w := &Workload{Name: "sessionization", Gen: cfg.Block, Clicks: true}
	// Scratch buffers are per-Workload: emit targets copy immediately and the
	// simulation runs one process at a time, so reuse across records is safe.
	var keyBuf, valBuf []byte
	w.Job = engine.Job{
		Name:        w.Name,
		Reader:      clickReader(cfg),
		BinaryInput: cfg.Binary,
		Map: func(rec []byte, emit engine.Emit) {
			var c clickFields
			if !readClick(&c, rec, cfg.Binary) {
				return
			}
			// key = user, value = "ts url" — everything needed to rebuild
			// the ordered session stream.
			keyBuf = c.appendUser(keyBuf[:0])
			valBuf = c.appendTime(valBuf[:0])
			valBuf = append(valBuf, ' ')
			valBuf = append(valBuf, c.URL...)
			emit(keyBuf, valBuf)
		},
		// The reducer sorts each user's clicks before splitting sessions, so
		// the output is a pure function of the value multiset.
		Reduce: sessionizeReducer(),
		Costs:  engine.CostModel{MapNsPerRecord: 240},
	}
	// Each Fresh() construction owns its scratch buffers, so parallel tasks
	// can run independent copies of the user functions.
	w.Job.Fresh = func() engine.Job { return Sessionization(cfg).Job }
	return w
}

// sessionizeReducer returns a reducer that sorts one user's clicks by
// (time, url) and splits them into sessions at SessionGap boundaries,
// emitting the reordered log: "ts@url,ts@url|ts@url" with '|' separating
// sessions. A value is "ts url"; one without a space is skipped.
//
// Each click is parsed once, into a sort word ts<<32 | i, where i is its
// index in vals; the words sort as plain integers, and only a run of equal
// timestamps is then ordered by url. Clicks equal in both are byte-equal in
// the output, so their order is invisible. A click whose timestamp text is
// what appendUint would write back (scanClick's verbatim) is copied whole
// with its space overwritten by '@'; any other is re-formatted, so "0100 /a"
// reads "100@/a" as ever. A group with a timestamp of 2³² or more, or with
// 2³² values, sorts plain index words through a comparator instead.
//
// A group of at least countingSortMin clicks whose timestamps span at most
// countingSortSpan seconds per click is ordered by a stable counting sort on
// the timestamp offset instead. The hottest users' groups are like that —
// their clicks arrive as ascending runs, one per map block, over a short
// stretch of time — and hold about 40 % of the values of the bench's 8 MB
// sessionization (DESIGN.md §10). Words are built in index order, so
// the counting sort yields what slices.Sort would: the one ascending order
// of distinct words.
//
// The scratch — the words, each value's space offset and the counting
// sort's counts and destinations — holds no pointers, so it cannot pin the
// reduce side's input buffers that vals alias, and GC does not scan it. It
// persists across keys and grows straight to the size a group needs: a hot
// user's group is a large share of its partition, and reaching it by
// append's growth steps allocates several times its size — once per copy of
// the reducer (Job.Fresh).
func sessionizeReducer() engine.ReduceFunc {
	var words []uint64
	// spaces[i] is the offset of the ' ' in vals[i], complemented (^sp)
	// when the timestamp before it must be re-formatted. Offsets fit: a
	// pair is far smaller than 2 GiB.
	var spaces []int32
	// counts and dest are the counting sort's scratch: a slot per second of
	// the group's span, a slot per word.
	var counts, dest []uint32
	var out []byte
	return func(key []byte, vals [][]byte, emit engine.Emit) {
		if cap(words) < len(vals) {
			words = make([]uint64, 0, len(vals))
			spaces = make([]int32, len(vals))
		}
		words = words[:0]
		wide := uint64(len(vals)) > math.MaxUint32
		outLen := 0 // a click is written as long as it was read: ' ' becomes '@', plus a separator
		first, last := uint64(math.MaxUint64), uint64(0)
		for i, v := range vals {
			ts, sp, verbatim := scanClick(v)
			if sp < 0 {
				continue
			}
			spaces[i] = int32(sp)
			if !verbatim {
				spaces[i] = ^int32(sp)
			}
			wide = wide || ts > math.MaxUint32
			first, last = min(first, ts), max(last, ts)
			words = append(words, ts<<32|uint64(i))
			outLen += len(v) + 1
		}
		url := func(i uint64) []byte {
			sp := spaces[i]
			if sp < 0 {
				sp = ^sp
			}
			return vals[i][sp+1:]
		}
		if wide {
			// The packed words lost bits: sort bare indices by (time, url).
			words = words[:0]
			for i, v := range vals {
				if bytes.IndexByte(v, ' ') >= 0 {
					words = append(words, uint64(i))
				}
			}
			slices.SortFunc(words, func(a, b uint64) int {
				ta, _, _ := scanClick(vals[a])
				tb, _, _ := scanClick(vals[b])
				return cmp.Or(cmp.Compare(ta, tb), bytes.Compare(url(a), url(b)))
			})
		} else {
			if n := uint64(len(words)); n >= countingSortMin && last-first < countingSortSpan*n {
				span := int(last-first) + 1
				if cap(counts) < span {
					counts = make([]uint32, span)
				}
				if cap(dest) < len(words) {
					dest = make([]uint32, cap(words))
				}
				countingSort(words, first, counts[:span], dest[:len(words)])
			} else {
				slices.Sort(words)
			}
			for lo := 0; lo < len(words); {
				hi := lo + 1
				for hi < len(words) && words[hi]>>32 == words[lo]>>32 {
					hi++
				}
				if hi-lo > 1 {
					slices.SortFunc(words[lo:hi], func(a, b uint64) int {
						return bytes.Compare(url(a&math.MaxUint32), url(b&math.MaxUint32))
					})
				}
				lo = hi
			}
		}
		if cap(out) < outLen {
			out = make([]byte, 0, outLen)
		}
		out = out[:0]
		var prev uint64
		for k, w := range words {
			i, ts := int(uint32(w)), w>>32
			if wide {
				i = int(w)
				ts, _, _ = scanClick(vals[i])
			}
			if k > 0 {
				if ts-prev > SessionGap {
					out = append(out, '|')
				} else {
					out = append(out, ',')
				}
			}
			prev = ts
			v, sp := vals[i], spaces[i]
			if sp >= 0 {
				out = append(out, v...)
				out[len(out)-len(v)+int(sp)] = '@'
				continue
			}
			out = appendUint(out, ts)
			out = append(out, '@')
			out = append(out, v[^sp+1:]...)
		}
		emit(key, out)
	}
}

// A group is counting-sorted when it has at least countingSortMin clicks
// and its timestamps span at most countingSortSpan seconds per click.
const (
	countingSortMin  = 64
	countingSortSpan = 4
)

// countingSort orders words, whose timestamps lie in [first,
// first+len(counts)), by timestamp in place, keeping the order of words with
// equal timestamps. counts and dest are scratch.
func countingSort(words []uint64, first uint64, counts, dest []uint32) {
	clear(counts)
	for _, w := range words {
		counts[w>>32-first]++
	}
	var at uint32
	for d, c := range counts {
		counts[d] = at
		at += c
	}
	for k, w := range words {
		d := w>>32 - first
		dest[k] = counts[d]
		counts[d]++
	}
	// Move each word to its destination: every swap settles one word.
	for k := range words {
		for j := dest[k]; j != uint32(k); j = dest[k] {
			words[k], words[j] = words[j], words[k]
			dest[k], dest[j] = dest[j], j
		}
	}
}

// scanClick finds the ' ' in click value v (sp < 0 if there is none) and
// parses the timestamp text t before it as parseUint(t) does: digits up to
// the first non-digit, wrapping on overflow. verbatim reports whether
// appendUint(ts) is t itself: digits only, no leading zero unless t is "0",
// and at most 10 digits, too few to wrap.
func scanClick(v []byte) (ts uint64, sp int, verbatim bool) {
	n := 0
	for n < len(v) && v[n]-'0' <= 9 {
		ts = ts*10 + uint64(v[n]-'0')
		n++
	}
	if n < len(v) && v[n] == ' ' {
		return ts, n, n > 0 && n <= 10 && (v[0] != '0' || n == 1)
	}
	if sp = bytes.IndexByte(v[n:], ' '); sp >= 0 {
		sp += n
	}
	return ts, sp, false
}

// DefaultSessionWindow is WindowedSessionization's default bucket: 1 hour.
const DefaultSessionWindow = 3600

// WindowedSessionization is the sliding-window variant of the headline
// workload, built for continuously maintained answers: clicks are bucketed
// into fixed event-time windows before sessionizing, so the key is
// "u<user>@<window>" and each group holds one user's clicks within one
// window. Because appended log blocks carry later timestamps, a delta
// re-run touches only the trailing windows' keys — closed windows are
// served unchanged from preserved state, which is exactly how an early
// answer becomes a continuously maintained one.
func WindowedSessionization(cfg gen.ClickConfig, window uint32) *Workload {
	if window == 0 {
		window = DefaultSessionWindow
	}
	w := &Workload{Name: "windowed-sessionization", Gen: cfg.Block, Clicks: true}
	var keyBuf, valBuf []byte
	w.Job = engine.Job{
		Name:        w.Name,
		Reader:      clickReader(cfg),
		BinaryInput: cfg.Binary,
		Map: func(rec []byte, emit engine.Emit) {
			var c clickFields
			if !readClick(&c, rec, cfg.Binary) {
				return
			}
			keyBuf = c.appendUser(keyBuf[:0])
			keyBuf = append(keyBuf, '@')
			keyBuf = appendUint(keyBuf, uint64(c.Time/window))
			valBuf = c.appendTime(valBuf[:0])
			valBuf = append(valBuf, ' ')
			valBuf = append(valBuf, c.URL...)
			emit(keyBuf, valBuf)
		},
		Reduce: sessionizeReducer(),
		Costs:  engine.CostModel{MapNsPerRecord: 240},
	}
	w.Job.Fresh = func() engine.Job { return WindowedSessionization(cfg, window).Job }
	return w
}

// PageFrequency counts visits per URL (SELECT COUNT(*) GROUP BY url) — the
// canonical combiner-friendly workload with tiny intermediate data.
func PageFrequency(cfg gen.ClickConfig) *Workload {
	return countingWorkload("page-frequency", cfg, func(dst []byte, c clickFields) []byte {
		return append(dst, c.URL...)
	}, 60)
}

// PerUserCount counts clicks per user — Table II's second column: a map
// function so light that sorting takes nearly half the map-phase CPU.
func PerUserCount(cfg gen.ClickConfig) *Workload {
	return countingWorkload("per-user-count", cfg, func(dst []byte, c clickFields) []byte {
		return c.appendUser(dst)
	}, 60)
}

// one is the shared count value; emit targets copy, never mutate.
var one = []byte{'1'}

func countingWorkload(name string, cfg gen.ClickConfig, key func(dst []byte, c clickFields) []byte, mapNs float64) *Workload {
	w := &Workload{Name: name, Gen: cfg.Block, Clicks: true}
	var keyBuf []byte
	w.Job = engine.Job{
		Name:        name,
		Reader:      clickReader(cfg),
		BinaryInput: cfg.Binary,
		Map: func(rec []byte, emit engine.Emit) {
			var c clickFields
			if !readClick(&c, rec, cfg.Binary) {
				return
			}
			keyBuf = key(keyBuf[:0], c)
			emit(keyBuf, one)
		},
		Reduce: sumReducer(),
		Monoid: CountMonoid{},
		Costs:  engine.CostModel{MapNsPerRecord: mapNs},
	}
	w.Job.Fresh = func() engine.Job { return countingWorkload(name, cfg, key, mapNs).Job }
	return w
}

// sumReducer returns a fold over ASCII decimal values with a reused output
// buffer. Combine and Reduce get separate instances so their scratch state
// never interleaves.
func sumReducer() engine.ReduceFunc {
	var out []byte
	return func(key []byte, vals [][]byte, emit engine.Emit) {
		out = appendUint(out[:0], sumValues(vals))
		emit(key, out)
	}
}

func clickReader(cfg gen.ClickConfig) engine.RecordReader {
	if cfg.Binary {
		return BinaryClickReader
	}
	return LineReader
}

func parseClick(rec []byte, binary bool) (textfmt.Click, bool) {
	if binary {
		c, n := textfmt.ParseClickBinary(rec)
		return c, n > 0
	}
	c, err := textfmt.ParseClickText(rec)
	return c, err == nil
}

func appendUser(dst []byte, user uint32) []byte {
	dst = append(dst, 'u')
	return appendUint(dst, uint64(user))
}

// clickFields is a parsed click that keeps the record's own text of its
// timestamp and user fields where that text is canonical — exactly what
// appendUint and appendUser write back for the parsed values — so the text
// click maps copy those fields instead of re-formatting them.
type clickFields struct {
	textfmt.Click
	timeText, userText []byte // nil: format the parsed value
}

// readClick parses rec into c as parseClick does, reporting false where
// parseClick would. ParseClickText accepts a number field only when it is
// all digits and at most MaxUint32, so a field it accepted is canonical
// exactly when it has no leading zero; a text record keeps the text of such
// fields.
func readClick(c *clickFields, rec []byte, binary bool) bool {
	if binary {
		click, ok := parseClick(rec, true)
		*c = clickFields{Click: click}
		return ok
	}
	click, timeText, userText, err := textfmt.ParseClickFields(rec)
	*c = clickFields{Click: click}
	if err != nil {
		return false
	}
	if timeText[0] != '0' || len(timeText) == 1 {
		c.timeText = timeText
	}
	if userText[1] != '0' || len(userText) == 2 {
		c.userText = userText
	}
	return true
}

// appendTime appends the timestamp as appendUint writes it.
func (c *clickFields) appendTime(dst []byte) []byte {
	if c.timeText != nil {
		return append(dst, c.timeText...)
	}
	return appendUint(dst, uint64(c.Time))
}

// appendUser appends "u<user>" as appendUser writes it.
func (c *clickFields) appendUser(dst []byte) []byte {
	if c.userText != nil {
		return append(dst, c.userText...)
	}
	return appendUser(dst, c.User)
}
