package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// outputRun is everything observable of one collector run.
type outputRun struct {
	res     Result
	events  []trace.Event
	appends []string // NewSink: "reducer@time:len:bytes-hash" per flushed buffer
	files   []string // DFS: each part file's bytes
	end     sim.Time
}

// runCollector drives two reducers' pairs through a fresh collector at once
// — they interleave at every charge — either one Emit per pair or staged
// first and replayed, and closes both.
func runCollector(t *testing.T, pairs [2][][2][]byte, retain, sink, replay bool) outputRun {
	t.Helper()
	rt := testRuntime(2)
	log := trace.NewLog()
	rt.Tracer = log
	job := &Job{Name: "out", OutputPath: "out", Reducers: 2, RetainOutput: retain}
	var run outputRun
	oc := rt.NewOutputCollector(job, &run.res)
	if sink {
		oc.NewSink = func(r, nodeID int) func(p *sim.Proc, data []byte) {
			return func(p *sim.Proc, data []byte) {
				p.Sleep(sim.Duration(len(data))) // a sink that blocks, as a DFS append does
				run.appends = append(run.appends, fmt.Sprintf("%d@%d:%d:%x", r, p.Now(), len(data), pairHash(data, nil)))
			}
		}
	}
	for r := range pairs {
		rt.Env.Go(fmt.Sprintf("reduce-%d", r), func(p *sim.Proc) {
			if replay {
				var st Staged
				for _, kvp := range pairs[r] {
					st.Add(kvp[0], kvp[1])
				}
				oc.Replay(p, r, r, &st)
			} else {
				for _, kvp := range pairs[r] {
					oc.Emit(p, r, r, kvp[0], kvp[1])
				}
			}
			oc.Close(p, r)
		})
	}
	rt.Env.Run()
	oc.Materialize()
	run.events, run.end = log.Events(), rt.Env.Now()
	if !sink {
		for r := range pairs {
			path := fmt.Sprintf("out/part-r-%05d", r)
			if !rt.DFS.Exists(path) {
				run.files = append(run.files, "absent")
				continue
			}
			blocks, err := rt.DFS.Blocks(path)
			if err != nil {
				t.Fatal(err)
			}
			var data []byte
			for _, b := range blocks {
				data = append(data, b.Peek()...)
			}
			run.files = append(run.files, string(data))
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
	for _, tc := range cases {
		for _, mode := range []struct {
			name         string
			retain, sink bool
		}{{"dfs", false, false}, {"retain", true, false}, {"sink", false, true}, {"sink-retain", true, true}} {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				want := runCollector(t, tc.pairs, mode.retain, mode.sink, false)
				got := runCollector(t, tc.pairs, mode.retain, mode.sink, true)
				if !reflect.DeepEqual(got.res, want.res) {
					t.Errorf("Result differs:\nreplay %+v\nemit   %+v", got.res, want.res)
				}
				if !reflect.DeepEqual(got.events, want.events) {
					t.Errorf("trace differs: replay %v, emit %v", got.events, want.events)
				}
				if !reflect.DeepEqual(got.appends, want.appends) {
					t.Errorf("sink appends differ:\nreplay %v\nemit   %v", got.appends, want.appends)
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
				if mode.sink && want.res.OutputBytes >= outputFlushBytes && len(want.appends) < 2 {
					t.Fatalf("%d output bytes reached the sink in %d appends", want.res.OutputBytes, len(want.appends))
				}
			})
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
