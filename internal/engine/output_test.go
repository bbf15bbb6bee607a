package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// outputRun is everything observable of one collector run.
type outputRun struct {
	res     Result
	events  []trace.Event
	appends []string // NewSink: "reducer@time:len:bytes-hash" per flush's new bytes
	flushes []string // "reducer@time:len" per flush handed to a file or sink
	files   []string // each part file's (or kept sink's) bytes
	encoded int      // capacity of every write-behind buffer and staged unit
	end     sim.Time
	// units are each reducer's staged units (replay only), and kept each
	// reducer's part-file or sink bytes after Close.
	units [2][][]byte
	kept  [2][]byte
	// arrays holds, per reducer, the backing array of each commit.
	arrays [2][]*byte
}

// collectorMode is what a collector does with its output.
type collectorMode struct {
	name                  string
	retain, discard, sink bool
}

// runCollector drives two reducers' pairs through a fresh collector at once
// — they interleave at every charge — either one Emit per pair or staged
// first and replayed, and closes both.
func runCollector(t *testing.T, pairs [2][][2][]byte, mode collectorMode, replay bool) outputRun {
	t.Helper()
	rt := testRuntime(2)
	log := trace.NewLog()
	rt.Tracer = log
	job := &Job{Name: "out", OutputPath: "out", Reducers: 2, RetainOutput: mode.retain, DiscardOutput: mode.discard}
	var run outputRun
	oc := rt.NewOutputCollector(job, &run.res)
	if mode.sink {
		oc.NewSink = func(r, nodeID int) func(p *sim.Proc, data []byte) {
			return func(p *sim.Proc, data []byte) {
				added := data[len(run.kept[r]):]
				p.Sleep(sim.Duration(len(added))) // a sink that blocks, as a DFS commit does
				run.appends = append(run.appends, fmt.Sprintf("%d@%d:%d:%x", r, p.Now(), len(added), pairHash(added, nil)))
				run.kept[r] = data
			}
		}
	}
	// observe opens reducer r's writer — at the instant its first Emit or
	// Replay would — and logs every flush it hands on: the bytes a commit
	// adds to the file, or the size handed to a discarding one.
	observe := func(p *sim.Proc, r int) {
		w := oc.writer(r, r)
		if commit := w.commit; commit != nil {
			committed := 0
			w.commit = func(p *sim.Proc, data []byte) {
				run.flushes = append(run.flushes, fmt.Sprintf("%d@%d:%d", r, p.Now(), len(data)-committed))
				run.arrays[r] = append(run.arrays[r], unsafe.SliceData(data))
				committed = len(data)
				commit(p, data)
			}
		}
		if size := w.appendSize; size != nil {
			w.appendSize = func(p *sim.Proc, n int64) {
				run.flushes = append(run.flushes, fmt.Sprintf("%d@%d:%d", r, p.Now(), n))
				size(p, n)
			}
		}
	}
	for r := range pairs {
		rt.Env.Go(fmt.Sprintf("reduce-%d", r), func(p *sim.Proc) {
			if replay {
				st := oc.Stage()
				for _, kvp := range pairs[r] {
					st.Add(kvp[0], kvp[1])
				}
				for _, u := range st.units {
					run.encoded += cap(u)
				}
				run.units[r] = st.units
				if len(pairs[r]) > 0 {
					observe(p, r)
				}
				oc.Replay(p, r, r, &st)
			} else {
				for i, kvp := range pairs[r] {
					if i == 0 {
						observe(p, r)
					}
					oc.Emit(p, r, r, kvp[0], kvp[1])
				}
			}
			if w := oc.writers[r]; w != nil && !replay {
				run.encoded += cap(w.buf)
			}
			oc.Close(p, r)
		})
	}
	rt.Env.Run()
	oc.Materialize()
	run.events, run.end = log.Events(), rt.Env.Now()
	if !mode.sink {
		for r := range pairs {
			path := fmt.Sprintf("out/part-r-%05d", r)
			blocks, err := rt.DFS.Blocks(path)
			if err != nil {
				run.files = append(run.files, "absent")
				continue
			}
			switch {
			case len(blocks) > 1:
				t.Fatalf("%s: %d blocks, want one logical block", path, len(blocks))
			case len(blocks) == 1:
				run.kept[r] = blocks[0].Peek()
			}
			var size int64
			for _, b := range blocks {
				size += b.Size
			}
			run.files = append(run.files, fmt.Sprintf("%d:%s", size, run.kept[r]))
		}
	} else {
		for r := range pairs {
			run.files = append(run.files, fmt.Sprintf("sink:%s", run.kept[r]))
		}
	}
	return run
}

// Replay is defined as one Emit per staged pair: the Result, the instant of
// first output, every trace event, every buffer handed to the writer (size,
// bytes and virtual time) and the instant the reducers finish must be the
// same whichever way the pairs went in — at the unit boundaries above all.
func TestReplayMatchesEmit(t *testing.T) {
	pair := func(key string, encLen int) [2][]byte {
		// A value that makes the encoded pair exactly encLen bytes long.
		for vlen := encLen; vlen >= 0; vlen-- {
			v := bytes.Repeat([]byte{key[0]}, vlen)
			if kv.EncodedSize([]byte(key), v) == encLen {
				return [2][]byte{[]byte(key), v}
			}
		}
		panic("no value length encodes to the requested size")
	}
	small := func(prefix string, n int) (out [][2][]byte) {
		for i := 0; i < n; i++ {
			out = append(out, [2][]byte{[]byte(fmt.Sprintf("%s-%05d", prefix, i)), []byte(fmt.Sprintf("value-%d", i*i))})
		}
		return out
	}
	join := func(parts ...[][2][]byte) (out [][2][]byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	exact := small("a", 100)
	used := 0
	for _, p := range exact {
		used += kv.EncodedSize(p[0], p[1])
	}
	exact = join(exact, [][2][]byte{pair("exact", outputFlushBytes-used)}, small("z", 10))
	cases := []struct {
		name  string
		pairs [2][][2][]byte
	}{
		{"empty", [2][][2][]byte{}},
		{"one-reducer-empty", [2][][2][]byte{small("a", 50), nil}},
		{"less-than-a-unit", [2][][2][]byte{small("a", 500), small("b", 30)}},
		{"pair-ends-exactly-at-the-flush-size", [2][][2][]byte{exact, small("b", 2000)}},
		{"one-pair-larger-than-a-unit", [2][][2][]byte{
			join(small("a", 10), [][2][]byte{pair("huge", 3*outputFlushBytes+17)}, small("z", 10)),
			{pair("first-and-only", outputFlushBytes+1)}}},
		{"many-units", [2][][2][]byte{small("a", 30000), small("b", 12000)}},
	}
	modes := []collectorMode{
		{"dfs", false, false, false}, {"retain", true, false, false},
		{"sink", false, false, true}, {"sink-retain", true, false, true},
		{"discard", false, true, false}, {"sink-discard", false, true, true},
	}
	for _, tc := range cases {
		replays := map[string]outputRun{}
		for _, mode := range modes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				want := runCollector(t, tc.pairs, mode, false)
				got := runCollector(t, tc.pairs, mode, true)
				replays[mode.name] = got
				if !reflect.DeepEqual(got.res, want.res) {
					t.Errorf("Result differs:\nreplay %+v\nemit   %+v", got.res, want.res)
				}
				if !reflect.DeepEqual(got.events, want.events) {
					t.Errorf("trace differs: replay %v, emit %v", got.events, want.events)
				}
				if !reflect.DeepEqual(got.appends, want.appends) {
					t.Errorf("sink appends differ:\nreplay %v\nemit   %v", got.appends, want.appends)
				}
				if !reflect.DeepEqual(got.flushes, want.flushes) {
					t.Errorf("flushes differ:\nreplay %v\nemit   %v", got.flushes, want.flushes)
				}
				if !reflect.DeepEqual(got.files, want.files) {
					t.Error("part files differ")
				}
				if got.end != want.end {
					t.Errorf("finished at %v, emit path at %v", got.end, want.end)
				}
				if n := len(tc.pairs[0]) + len(tc.pairs[1]); want.res.OutputPairs != n {
					t.Fatalf("emit path counted %d pairs of %d", want.res.OutputPairs, n)
				}
				if mode.sink && !mode.discard && want.res.OutputBytes >= outputFlushBytes && len(want.appends) < 2 {
					t.Fatalf("%d output bytes reached the sink in %d appends", want.res.OutputBytes, len(want.appends))
				}
				if mode.retain && !reflect.DeepEqual(want.res.Output, OutputMap(want.kept[:], want.res.OutputPairs)) {
					t.Errorf("retained output is not the part files' pairs")
				}
				if mode.discard && (got.encoded != 0 || want.encoded != 0) {
					t.Fatalf("discarded output encoded into %d bytes of units (replay), %d of buffer (emit)", got.encoded, want.encoded)
				}
			})
		}
		// Discarding output drops its bytes and nothing else: the same flush
		// sizes at the same instants, first output, Result and trace as the
		// encoded replay into a file that keeps them. (A discarding sink has
		// no I/O to compare: the test sink's blocking is the kept path's.)
		if got, want := replays["discard"], replays["dfs"]; !reflect.DeepEqual(got.res, want.res) ||
			!reflect.DeepEqual(got.events, want.events) || !reflect.DeepEqual(got.flushes, want.flushes) || got.end != want.end {
			t.Errorf("%s/discard differs from dfs:\nresult %+v\nwant   %+v\nflushes %v\nwant    %v",
				tc.name, got.res, want.res, got.flushes, want.flushes)
		}
		if got, want := replays["sink-discard"].res, replays["sink"].res; got.OutputBytes != want.OutputBytes ||
			got.OutputChecksum != want.OutputChecksum || got.FirstOutputAt != want.FirstOutputAt {
			t.Errorf("%s/sink-discard: %+v, sink %+v", tc.name, got, want)
		}
	}
}

// Replay copies kept output at most once, and leaves the part file (or
// sink) holding the bytes one Emit per pair writes: a lone staged unit
// becomes the file as it is, and several units are copied once, into one
// array that every flush of the replay commits.
func TestReplayCopiesKeptOutputOnce(t *testing.T) {
	small := func(prefix string, n int) (out [][2][]byte) {
		for i := 0; i < n; i++ {
			out = append(out, [2][]byte{[]byte(fmt.Sprintf("%s-%05d", prefix, i)), []byte(fmt.Sprintf("value-%d", i*i))})
		}
		return out
	}
	cases := []struct {
		name  string
		pairs [2][][2][]byte
		units int // reducer 0's staged units
	}{
		{"one-adopted-unit", [2][][2][]byte{small("a", 500), small("b", 3000)}, 1},
		{"several-units", [2][][2][]byte{small("a", 30000), small("b", 12000)}, 6},
	}
	modes := []collectorMode{{name: "dfs"}, {name: "retain", retain: true}, {name: "sink", sink: true}}
	for _, tc := range cases {
		for _, mode := range modes {
			want := runCollector(t, tc.pairs, mode, false)
			got := runCollector(t, tc.pairs, mode, true)
			if n := len(got.units[0]); n != tc.units {
				t.Fatalf("%s/%s: reducer 0 staged %d units, want %d", tc.name, mode.name, n, tc.units)
			}
			for r := range tc.pairs {
				if len(want.kept[r]) == 0 || !bytes.Equal(got.kept[r], want.kept[r]) {
					t.Errorf("%s/%s: reducer %d's file after Replay differs from Emit's (%d bytes, %d)",
						tc.name, mode.name, r, len(got.kept[r]), len(want.kept[r]))
				}
				units, arrays := got.units[r], got.arrays[r]
				for _, a := range arrays {
					if a != unsafe.SliceData(got.kept[r]) {
						t.Fatalf("%s/%s: reducer %d's replay committed %d arrays, want one", tc.name, mode.name, r, len(arrays))
					}
				}
				if adopted := arrays[0] == unsafe.SliceData(units[0]); adopted != (len(units) == 1) {
					t.Errorf("%s/%s: reducer %d: %d staged units, adopted as the file: %v", tc.name, mode.name, r, len(units), adopted)
				}
			}
		}
	}
}

// Kept output is encoded once, into its part file: a buffer that doubles
// from 4 KB and is never rewound. The arrays it passes through sum to less
// than twice the last, which the file keeps, and the last is less than
// twice the output, so kept Emit allocates less than 4x its output bytes,
// plus 4 KB of first buffer and 1 KB of file metadata per reducer. Just past
// a doubling (2,600 pairs) it reads 3.98x; mid-way (2,000) 2.58x. The
// rewound write-behind buffer whose flushes the file copied into an
// append-grown slice read 4.2x and 5.2x there.
func TestKeptEmitAllocation(t *testing.T) {
	const reducers = 2
	key, val := []byte("user-0001"), bytes.Repeat([]byte("v"), 90)
	pairLen := kv.EncodedSize(key, val)
	for _, n := range []int{1, 300, 2000, 2600} {
		rt := testRuntime(reducers)
		oc := rt.NewOutputCollector(&Job{Name: "kept", OutputPath: "kept", Reducers: reducers}, &Result{})
		for r := 0; r < reducers; r++ {
			rt.Env.Go(fmt.Sprintf("reduce-%d", r), func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					oc.Emit(p, r, r, key, val)
				}
				oc.Close(p, r)
			})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt.Env.Run()
		runtime.ReadMemStats(&after)
		out := reducers * n * pairLen
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d pairs per reducer: %d bytes allocated for %d output bytes: %.2fx", n, alloc, out, float64(alloc)/float64(out))
		if bound := 4*out + reducers*(4<<10+1<<10); alloc >= uint64(bound) {
			t.Errorf("%d pairs per reducer: kept Emit allocated %d bytes for %d output bytes, bound %d", n, alloc, out, bound)
		}
	}
}

// A Staged is sized by the data: a reducer with a few pairs stages a few
// kilobytes, not a flush unit, and a unit that fills is never copied more
// than doubling costs.
func TestStagedSizedByData(t *testing.T) {
	var st Staged
	st.Add([]byte("key"), []byte("value"))
	if c := cap(st.units[0]); c > 4<<10 {
		t.Fatalf("one pair staged into a %d-byte unit", c)
	}
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 5000; i++ {
		st.Add([]byte(fmt.Sprintf("key-%06d", i)), val)
	}
	total := 0
	for i, u := range st.units {
		total += cap(u)
		if sealed := i < len(st.units)-1; sealed && len(u) < outputFlushBytes {
			t.Fatalf("unit %d sealed at %d bytes", i, len(u))
		} else if len(u)-kv.EncodedSize([]byte("key-000000"), val) >= outputFlushBytes {
			t.Fatalf("unit %d kept filling past its sealing pair: %d bytes", i, len(u))
		}
	}
	if data := 5000 * 110; total > 2*data {
		t.Fatalf("units hold %d bytes of capacity for %d bytes of output", total, data)
	}
}

// Discarded output costs no allocation per pair: Emit counts into the
// writer state, and a sized Staged replays without touching a buffer.
func TestDiscardAllocatesNothingPerPair(t *testing.T) {
	rt := testRuntime(1)
	oc := rt.NewOutputCollector(&Job{Name: "d", OutputPath: "d", Reducers: 1, DiscardOutput: true}, &Result{})
	key, val := []byte("user-0001"), bytes.Repeat([]byte("v"), 90)
	st := oc.Stage()
	for i := 0; i < 4000; i++ { // three write-behind flushes' worth
		st.Add(key, val)
	}
	if st.units != nil {
		t.Fatalf("a discarding collector's Staged holds %d units", len(st.units))
	}
	rt.Env.Go("reduce", func(p *sim.Proc) {
		oc.Emit(p, 0, 0, key, val) // opens the writer
		if avg := testing.AllocsPerRun(5000, func() { oc.Emit(p, 0, 0, key, val) }); avg != 0 {
			t.Errorf("discarding Emit allocates %.1f/pair, budget 0", avg)
		}
		oc.Close(p, 0)
		if avg := testing.AllocsPerRun(20, func() {
			oc.Replay(p, 0, 0, &st)
			oc.Close(p, 0)
		}); avg != 0 {
			t.Errorf("discarding Replay of %d pairs allocates %.1f, budget 0", len(st.encLens), avg)
		}
	})
	rt.Env.Run()
	if oc.writers[0].buf != nil {
		t.Fatalf("discarded output encoded into a %d-byte buffer", cap(oc.writers[0].buf))
	}
}

// FuzzStagedSizedMatchesUnits holds a sized Staged — sizes and the sum of
// the checksum terms, no units — to the encoded units it stands for. Each
// three bytes draw one pair: its reducer, a key length and a value length,
// scaled up (to 320 KB) when the top bit is set, so pairs straddle and
// exceed outputFlushBytes. Replayed through a keeping and a discarding collector,
// the pairs must flush the same sizes at the same instants and leave the
// same Result.
func FuzzStagedSizedMatchesUnits(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x40, 0x42, 0x10, 0x00})
	f.Add(bytes.Repeat([]byte{0x83, 0x66, 0x66, 0x05, 0x00, 0x70}, 6))
	f.Add([]byte{0xff, 0xff, 0xff, 0x40, 0x00, 0x01, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pairs [2][][2][]byte
		total := 0
		for i := 0; i+3 <= len(data) && total < 2<<20; i += 3 {
			klen := int(data[i] & 0x1f)
			vlen := int(data[i+1])<<8 | int(data[i+2])
			if data[i]&0x80 != 0 {
				vlen *= 5
			}
			r := int(data[i]>>6) & 1
			key := bytes.Repeat([]byte{byte(i)}, klen)
			val := bytes.Repeat([]byte{data[i+1] ^ byte(i)}, vlen)
			pairs[r] = append(pairs[r], [2][]byte{key, val})
			total += kv.EncodedSize(key, val)
		}
		kept := runCollector(t, pairs, collectorMode{name: "dfs"}, true)
		sized := runCollector(t, pairs, collectorMode{name: "discard", discard: true}, true)
		if sized.encoded != 0 {
			t.Fatalf("discarding collector staged %d bytes of units", sized.encoded)
		}
		if !reflect.DeepEqual(sized.flushes, kept.flushes) {
			t.Fatalf("flushes differ:\nsized   %v\nencoded %v", sized.flushes, kept.flushes)
		}
		if !reflect.DeepEqual(sized.res, kept.res) || sized.end != kept.end {
			t.Fatalf("sized replay %+v ending %v, encoded %+v ending %v", sized.res, sized.end, kept.res, kept.end)
		}
	})
}

// Replay takes a Staged of its collector's kind: sizes only into discarded
// output, bytes only into output that keeps them. Retained output is read
// from the part files, so a mismatch would lose bytes or encode discarded
// ones.
func TestReplayRejectsMismatchedStaged(t *testing.T) {
	for _, tc := range []struct {
		name           string
		discard, sized bool // the collector's output, the Staged
	}{
		{"sizes-into-kept", false, true},
		{"bytes-into-discarded", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRuntime(1)
			oc := rt.NewOutputCollector(&Job{Name: "r", OutputPath: "r", Reducers: 1, DiscardOutput: tc.discard}, &Result{})
			st := Staged{sized: tc.sized}
			st.Add([]byte("key"), []byte("value"))
			var got any
			rt.Env.Go("reduce", func(p *sim.Proc) {
				defer func() { got = recover() }()
				oc.Replay(p, 0, 0, &st)
			})
			rt.Env.Run()
			if got == nil {
				t.Fatal("Replay accepted a Staged of the other kind")
			}
		})
	}
}
