package workloads

import (
	"bytes"
	"cmp"
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
			c, ok := parseClick(rec, cfg.Binary)
			if !ok {
				return
			}
			// key = user, value = "ts url" — everything needed to rebuild
			// the ordered session stream.
			keyBuf = appendUser(keyBuf[:0], c.User)
			valBuf = appendUint(valBuf[:0], uint64(c.Time))
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

// sessionClick is one parsed click inside sessionizeReducer.
type sessionClick struct {
	ts  uint64
	url []byte
}

// sessionizeReducer returns a reducer that sorts one user's clicks by time
// and splits them into sessions at SessionGap boundaries, emitting the
// reordered log: "ts@url,ts@url|ts@url" with '|' separating sessions. The
// clicks and output buffers persist across keys to avoid per-key churn, and
// grow straight to the size a group needs: a hot user's group is a large
// share of its partition, and reaching it by append's growth steps allocates
// several times its size — once per copy of the reducer (Job.Fresh).
func sessionizeReducer() engine.ReduceFunc {
	var clicks []sessionClick
	var out []byte
	return func(key []byte, vals [][]byte, emit engine.Emit) {
		if cap(clicks) < len(vals) {
			clicks = make([]sessionClick, 0, len(vals))
		}
		clicks = clicks[:0]
		outLen := 0 // a click is written as long as it was read: ' ' becomes '@', plus a separator
		for _, v := range vals {
			sp := bytes.IndexByte(v, ' ')
			if sp < 0 {
				continue
			}
			clicks = append(clicks, sessionClick{ts: parseUint(v[:sp]), url: v[sp+1:]})
			outLen += len(v) + 1
		}
		if cap(out) < outLen {
			out = make([]byte, 0, outLen)
		}
		slices.SortFunc(clicks, func(a, b sessionClick) int {
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
			c, ok := parseClick(rec, cfg.Binary)
			if !ok {
				return
			}
			keyBuf = appendUser(keyBuf[:0], c.User)
			keyBuf = append(keyBuf, '@')
			keyBuf = appendUint(keyBuf, uint64(c.Time/window))
			valBuf = appendUint(valBuf[:0], uint64(c.Time))
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
	return countingWorkload("page-frequency", cfg, func(dst []byte, c textfmt.Click) []byte {
		return append(dst, c.URL...)
	}, 60)
}

// PerUserCount counts clicks per user — Table II's second column: a map
// function so light that sorting takes nearly half the map-phase CPU.
func PerUserCount(cfg gen.ClickConfig) *Workload {
	return countingWorkload("per-user-count", cfg, func(dst []byte, c textfmt.Click) []byte {
		return appendUser(dst, c.User)
	}, 60)
}

// one is the shared count value; emit targets copy, never mutate.
var one = []byte{'1'}

func countingWorkload(name string, cfg gen.ClickConfig, key func(dst []byte, c textfmt.Click) []byte, mapNs float64) *Workload {
	w := &Workload{Name: name, Gen: cfg.Block, Clicks: true}
	var keyBuf []byte
	w.Job = engine.Job{
		Name:        name,
		Reader:      clickReader(cfg),
		BinaryInput: cfg.Binary,
		Map: func(rec []byte, emit engine.Emit) {
			c, ok := parseClick(rec, cfg.Binary)
			if !ok {
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
