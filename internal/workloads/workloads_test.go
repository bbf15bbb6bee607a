package workloads

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/kv"
	"onepass/internal/textfmt"
)

func smallClickCfg() gen.ClickConfig {
	cfg := gen.DefaultClickConfig()
	cfg.Users = 500
	cfg.URLs = 200
	return cfg
}

func genBlocks(g func(int, int64) []byte, n int, size int64) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = g(i, size)
	}
	return out
}

func TestSessionizationReference(t *testing.T) {
	w := Sessionization(smallClickCfg())
	blocks := genBlocks(w.Gen, 2, 16<<10)
	out := Reference(w, blocks)
	if len(out) == 0 {
		t.Fatal("no users in output")
	}
	for user, sessions := range out {
		if user[0] != 'u' {
			t.Fatalf("bad key %q", user)
		}
		// Timestamps must be non-decreasing within the whole value.
		var last uint64
		for _, sess := range strings.Split(sessions, "|") {
			for _, clk := range strings.Split(sess, ",") {
				slash := strings.IndexByte(clk, '@')
				if slash < 0 {
					t.Fatalf("bad click %q", clk)
				}
				ts := parseUint([]byte(clk[:slash]))
				if ts < last {
					t.Fatalf("user %s: timestamps out of order", user)
				}
				last = ts
			}
		}
	}
}

func TestSessionizationSplitsAtGap(t *testing.T) {
	var vals [][]byte
	vals = append(vals, []byte("1000 /a"))
	vals = append(vals, []byte(fmt.Sprintf("%d /b", 1000+SessionGap)))     // same session (== gap)
	vals = append(vals, []byte(fmt.Sprintf("%d /c", 1000+2*SessionGap+1))) // new session
	var got string
	sessionizeReducer()([]byte("u1"), vals, func(k, v []byte) { got = string(v) })
	want := fmt.Sprintf("1000@/a,%d@/b|%d@/c", 1000+SessionGap, 1000+2*SessionGap+1)
	if got != want {
		t.Fatalf("sessions = %q, want %q", got, want)
	}
}

func TestSessionizationReduceSortsByTime(t *testing.T) {
	vals := [][]byte{[]byte("300 /c"), []byte("100 /a"), []byte("200 /b")}
	var got string
	sessionizeReducer()([]byte("u1"), vals, func(k, v []byte) { got = string(v) })
	if got != "100@/a,200@/b,300@/c" {
		t.Fatalf("got %q", got)
	}
}

// The reducer runs once per user on the sort-merge path; in steady state
// (scratch grown to the largest group) a group must cost no allocation —
// sort.Slice used to cost two per call.
func TestAllocBudgetSessionizeReducer(t *testing.T) {
	var vals [][]byte
	for i := 0; i < 40; i++ {
		vals = append(vals, []byte(fmt.Sprintf("%d /page/%d", 1000+(i*7919)%5000, i)))
	}
	reduce := sessionizeReducer()
	key := []byte("u1")
	sink := func(k, v []byte) {}
	reduce(key, vals, sink)
	avg := testing.AllocsPerRun(200, func() { reduce(key, vals, sink) })
	if avg != 0 {
		t.Fatalf("sessionizeReducer allocates %.1f per group, budget 0", avg)
	}
}

func TestCountingWorkloadsAgainstManualCount(t *testing.T) {
	for _, mk := range []func(gen.ClickConfig) *Workload{PageFrequency, PerUserCount} {
		w := mk(smallClickCfg())
		blocks := genBlocks(w.Gen, 2, 16<<10)
		out := Reference(w, blocks)
		// Manually recount with the map function only.
		manual := map[string]uint64{}
		for _, b := range blocks {
			w.Job.Reader(b, func(rec []byte) {
				w.Job.Map(rec, func(k, v []byte) { manual[string(k)] += parseUint(v) })
			})
		}
		if len(out) != len(manual) {
			t.Fatalf("%s: %d keys vs manual %d", w.Name, len(out), len(manual))
		}
		for k, v := range manual {
			if out[k] != fmt.Sprint(v) {
				t.Fatalf("%s: key %q = %q, manual %d", w.Name, k, out[k], v)
			}
		}
	}
}

// foldAnswer runs vals through job's resolved fold the way a hash engine
// does — the first value lifted, the middle ones added, the last merged in
// as a separately built element — and returns what Finish emits.
func foldAnswer(t *testing.T, job engine.Job, key []byte, vals [][]byte) string {
	t.Helper()
	f := job.Fold()
	last := len(vals) - 1
	state := f.Lift(nil, vals[0])
	for _, v := range vals[1:last] {
		state = f.Add(state, v)
	}
	state = f.Merge(state, f.Lift(nil, vals[last]))
	var got string
	if _, err := f.Finish(key, state, func(_, v []byte) { got = string(v) }); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCombineMatchesReduceForCounting(t *testing.T) {
	w := PageFrequency(smallClickCfg())
	vals := [][]byte{[]byte("1"), []byte("41"), []byte("0")}
	var viaCombine, viaReduce string
	combine := w.Job.Fold().Combiner()
	if combine == nil {
		t.Fatal("counting workload must derive a combiner from its monoid")
	}
	combine([]byte("k"), vals, func(k, v []byte) { viaCombine = string(v) })
	w.Job.Reduce([]byte("k"), vals, func(k, v []byte) { viaReduce = string(v) })
	if viaCombine != "42" || viaReduce != "42" {
		t.Fatalf("combine=%q reduce=%q", viaCombine, viaReduce)
	}
}

func TestCountAggMatchesReduce(t *testing.T) {
	job := PerUserCount(smallClickCfg()).Job
	vals := [][]byte{[]byte("5"), []byte("7"), []byte("30")}
	got := foldAnswer(t, job, []byte("k"), vals)
	if got != "42" || CountState([]byte(got)) != 42 {
		t.Fatalf("folded count = %q", got)
	}
	// Stripped of its monoid the same job folds value lists and reduces them.
	job.Monoid = nil
	if got := foldAnswer(t, job, []byte("k"), vals); got != "42" {
		t.Fatalf("value-list fold = %q", got)
	}
}

func TestBinaryClickVariantMatchesText(t *testing.T) {
	cfgText := smallClickCfg()
	cfgBin := cfgText
	cfgBin.Binary = true
	wText := PerUserCount(cfgText)
	wBin := PerUserCount(cfgBin)
	outText := Reference(wText, genBlocks(wText.Gen, 2, 16<<10))
	outBin := Reference(wBin, genBlocks(wBin.Gen, 2, 16<<10))
	// Same seed, same distribution — the *sets* of users should overlap
	// heavily and the record counts should be similar. (Byte sizes differ,
	// so blocks hold slightly different record counts; we verify the binary
	// pipeline works, not exact equality.)
	if len(outBin) == 0 {
		t.Fatal("binary variant produced nothing")
	}
	common := 0
	for k := range outBin {
		if _, ok := outText[k]; ok {
			common++
		}
	}
	if common < len(outBin)/2 {
		t.Fatalf("binary/text user overlap only %d/%d", common, len(outBin))
	}
}

func TestInvertedIndexReference(t *testing.T) {
	cfg := gen.DefaultDocConfig()
	cfg.Vocab = 500
	cfg.WordsPerDoc = 40
	w := InvertedIndex(cfg)
	blocks := genBlocks(w.Gen, 2, 8<<10)
	out := Reference(w, blocks)
	if len(out) == 0 {
		t.Fatal("empty index")
	}
	for word, postings := range out {
		if len(postings)%postingWidth != 0 {
			t.Fatalf("word %q: postings not %d-aligned", word, postingWidth)
		}
		if isStopword([]byte(word), StopwordThreshold(cfg)) {
			t.Fatalf("stopword %q indexed", word)
		}
		// Postings sorted ascending.
		for off := postingWidth; off < len(postings); off += postingWidth {
			if postings[off-postingWidth:off] > postings[off:off+postingWidth] {
				t.Fatalf("word %q: postings unsorted", word)
			}
		}
	}
}

func TestInvertedIndexPostingEncoding(t *testing.T) {
	w := InvertedIndex(gen.DefaultDocConfig())
	var keys []string
	var vals [][]byte
	// Default vocab 80000, coverage 0.80 -> threshold ~1163: w5 filtered,
	// w1999+ kept.
	w.Job.Map([]byte("d7 w1999 w5 w2000"), func(k, v []byte) {
		keys = append(keys, string(k))
		vals = append(vals, append([]byte(nil), v...))
	})
	if len(keys) != 2 || keys[0] != "w1999" || keys[1] != "w2000" {
		t.Fatalf("keys = %v", keys)
	}
	if binary.BigEndian.Uint32(vals[0][0:]) != 7 || binary.BigEndian.Uint32(vals[0][4:]) != 0 {
		t.Fatalf("posting 0 = %x", vals[0])
	}
	if binary.BigEndian.Uint32(vals[1][4:]) != 2 {
		t.Fatalf("posting 1 pos = %x", vals[1])
	}
}

func TestPostingsAggMatchesReduce(t *testing.T) {
	w := InvertedIndex(gen.DefaultDocConfig())
	mk := func(doc, pos uint32) []byte {
		var p [postingWidth]byte
		binary.BigEndian.PutUint32(p[0:], doc)
		binary.BigEndian.PutUint32(p[4:], pos)
		return p[:]
	}
	vals := [][]byte{mk(5, 1), mk(2, 9), mk(2, 3)}
	var viaReduce string
	w.Job.Reduce([]byte("w"), vals, func(k, v []byte) { viaReduce = string(v) })

	viaAgg := foldAnswer(t, w.Job, []byte("w"), vals)
	if viaAgg != viaReduce {
		t.Fatalf("agg %x != reduce %x", viaAgg, viaReduce)
	}
	want := string(mk(2, 3)) + string(mk(2, 9)) + string(mk(5, 1))
	if viaReduce != want {
		t.Fatalf("reduce order wrong: %x", viaReduce)
	}
}

func TestJobTemplatesValidate(t *testing.T) {
	cfg := smallClickCfg()
	for _, w := range []*Workload{
		Sessionization(cfg), PageFrequency(cfg), PerUserCount(cfg),
		InvertedIndex(gen.DefaultDocConfig()),
	} {
		job := w.Job
		job.InputPath = "in"
		job.OutputPath = "out"
		job.Reducers = 4
		if err := job.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestValidateCatchesMissingFields(t *testing.T) {
	w := PageFrequency(smallClickCfg())
	job := w.Job
	if err := job.Validate(); err == nil {
		t.Fatal("missing input path must fail validation")
	}
	var empty engine.Job
	if err := empty.Validate(); err == nil {
		t.Fatal("empty job must fail validation")
	}
}

func TestParseAppendUintRoundTrip(t *testing.T) {
	for _, n := range []uint64{0, 1, 9, 10, 123456789, 18446744073709551615} {
		if parseUint(appendUint(nil, n)) != n {
			t.Fatalf("round trip failed for %d", n)
		}
	}
	if parseUint([]byte("12x3")) != 12 {
		t.Fatal("parse must stop at non-digit")
	}
}

func TestTopKMergeAndEncoding(t *testing.T) {
	a := decodeTop([]byte("10 /x\n5 /y\n"))
	b := decodeTop([]byte("7 /z\n"))
	merged := mergeTop(2, a, b)
	if len(merged) != 2 || merged[0].count != 10 || merged[1].count != 7 {
		t.Fatalf("merged = %+v", merged)
	}
	enc := encodeTop(merged)
	if string(enc) != "10 /x\n7 /z\n" {
		t.Fatalf("encoded = %q", enc)
	}
	names, counts := ParseTopK(string(enc))
	if len(names) != 2 || names[0] != "/x" || counts[1] != 7 {
		t.Fatalf("parsed = %v %v", names, counts)
	}
}

func TestTopKMergeTieBreak(t *testing.T) {
	m := mergeTop(2, decodeTop([]byte("5 /b\n5 /a\n5 /c\n")))
	if string(m[0].name) != "/a" || string(m[1].name) != "/b" {
		t.Fatalf("tie break = %+v", m)
	}
}

func TestTopKAggMatchesReduce(t *testing.T) {
	job := TopK(3)
	vals := [][]byte{
		[]byte("10 /a\n"), []byte("3 /b\n"), []byte("7 /c\n"), []byte("1 /d\n"),
	}
	var viaReduce string
	job.Reduce(TopKKey, vals, func(k, v []byte) { viaReduce = string(v) })
	viaAgg := foldAnswer(t, job, TopKKey, vals)
	if viaAgg != viaReduce {
		t.Fatalf("agg %q != reduce %q", viaAgg, viaReduce)
	}
	if viaReduce != "10 /a\n7 /c\n3 /b\n" {
		t.Fatalf("top-3 = %q", viaReduce)
	}
}

func TestPairReader(t *testing.T) {
	var buf []byte
	buf = kvAppend(buf, "k1", "v1")
	buf = kvAppend(buf, "k2", "v2")
	var recs int
	PairReader(buf, func(rec []byte) { recs++ })
	if recs != 2 {
		t.Fatalf("records = %d", recs)
	}
}

func kvAppend(buf []byte, k, v string) []byte {
	return kv.AppendPair(buf, []byte(k), []byte(v))
}

func TestWindowedTopicCountsReference(t *testing.T) {
	cfg := smallClickCfg()
	const window = 600
	w := WindowedTopicCounts(cfg, window)
	blocks := genBlocks(w.Gen, 2, 16<<10)
	out := Reference(w, blocks)
	if len(out) == 0 {
		t.Fatal("no windowed counts")
	}
	// Recount manually.
	manual := map[string]uint64{}
	for _, b := range blocks {
		w.Job.Reader(b, func(rec []byte) {
			c, err := textfmt.ParseClickText(rec)
			if err != nil {
				return
			}
			manual[fmt.Sprintf("w%d|%s", c.Time/window, c.URL)]++
		})
	}
	if len(out) != len(manual) {
		t.Fatalf("keys = %d, manual %d", len(out), len(manual))
	}
	for k, v := range manual {
		if out[k] != fmt.Sprint(v) {
			t.Fatalf("%s = %s, want %d", k, out[k], v)
		}
	}
}

func TestTopKPerWindowSplitsGroups(t *testing.T) {
	job := TopKPerWindow(2)
	var buf []byte
	buf = kvAppend(buf, "w1|/a", "10")
	buf = kvAppend(buf, "w1|/b", "5")
	buf = kvAppend(buf, "w1|/c", "7")
	buf = kvAppend(buf, "w2|/a", "3")
	groups := map[string][][]byte{}
	job.Reader(buf, func(rec []byte) {
		job.Map(rec, func(k, v []byte) {
			groups[string(k)] = append(groups[string(k)], append([]byte(nil), v...))
		})
	})
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	var top string
	job.Reduce([]byte("w1"), groups["w1"], func(k, v []byte) { top = string(v) })
	if top != "10 /a\n7 /c\n" {
		t.Fatalf("w1 top-2 = %q", top)
	}
}
