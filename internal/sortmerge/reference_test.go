package sortmerge

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"onepass/internal/disk"
	"onepass/internal/kv"
	"onepass/internal/sim"
)

// refStream is the run reader as it stood before run files became immutable
// and aliased: it copies every refill into a private buffer, compacting the
// undecoded remainder to the front first. It is the oracle for what Stream
// must still return and still charge, refill for refill.
type refStream struct {
	p     *sim.Proc
	r     *disk.Reader
	buf   []byte
	off   int
	key   []byte
	val   []byte
	valid bool
	done  bool
}

func newRefStream(p *sim.Proc, run *Run) *refStream {
	return &refStream{p: p, r: run.Store.NewReader(run.File, streamBuf)}
}

func (s *refStream) Peek() ([]byte, []byte, bool) {
	if s.valid {
		return s.key, s.val, true
	}
	if s.done {
		return nil, nil, false
	}
	for {
		k, v, n := kv.DecodePair(s.buf[s.off:])
		if n > 0 {
			s.key, s.val = k, v
			s.off += n
			s.valid = true
			return s.key, s.val, true
		}
		chunk := s.r.Next(s.p, streamBuf)
		if chunk == nil {
			if s.off != len(s.buf) {
				panic("sortmerge: trailing partial record in run")
			}
			s.done = true
			return nil, nil, false
		}
		rest := copy(s.buf, s.buf[s.off:])
		s.buf = append(s.buf[:rest], chunk...)
		s.off = 0
	}
}

func (s *refStream) Advance() { s.valid = false }

// refReadRun is the former readRun: the same buffered reads, copied out.
func refReadRun(p *sim.Proc, r *Run) []byte {
	out := make([]byte, 0, r.Size())
	rd := r.Store.NewReader(r.File, streamBuf)
	for {
		chunk := rd.Next(p, streamBuf)
		if chunk == nil {
			return out
		}
		out = append(out, chunk...)
	}
}

// streamObs is one observation of a streamed run: a device queue change (a
// read starting or finishing) or a pair handed out, each with the virtual
// instant and the device's cumulative bytes read.
type streamObs struct {
	at         sim.Time
	read       float64
	queue      [2]int // device events: in use, waiting
	klen, vlen int    // pairs: lengths and digests
	ksum, vsum uint64
}

type streamTrace struct {
	obs      []streamObs
	panicked string
	whole    []byte // what reading the run back in full returned
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// traceRun writes run as a file on a fresh device, streams it to the end
// through open, then reads it back in full through readAll, recording every
// device event and every pair. With aliased set, each pair must be the
// file's own bytes.
func traceRun(t *testing.T, run []byte,
	open func(*sim.Proc, *Run) kv.PairStream, readAll func(*sim.Proc, *Run) []byte, aliased bool) streamTrace {
	var tr streamTrace
	env := sim.New()
	dev := disk.NewDevice(env, "scratch", disk.SSD)
	store := disk.NewStore(dev)
	dev.OnChange(func(now sim.Time, inUse, waiting int) {
		tr.obs = append(tr.obs, streamObs{at: now, read: dev.BytesRead(), queue: [2]int{inUse, waiting}})
	})
	env.Go("stream", func(p *sim.Proc) {
		r := WriteRun(p, store, "run", bytes.Clone(run))
		func() {
			defer func() {
				if v := recover(); v != nil {
					tr.panicked = fmt.Sprintf("%v at %v after %v bytes", v, p.Now(), dev.BytesRead())
				}
			}()
			s := open(p, r)
			pos := 0
			for {
				k, v, ok := s.Peek()
				if !ok {
					return
				}
				if k2, v2, _ := s.Peek(); !bytes.Equal(k, k2) || !bytes.Equal(v, v2) {
					t.Error("a second Peek returned another pair")
				}
				pos += kv.EncodedSize(k, v)
				if aliased {
					data := r.File.Data()
					if len(v) > 0 && &v[0] != &data[pos-len(v)] || len(k) > 0 && &k[0] != &data[pos-len(v)-len(k)] {
						t.Errorf("pair ending at byte %d is not the file's own bytes", pos)
					}
				}
				tr.obs = append(tr.obs, streamObs{at: p.Now(), read: dev.BytesRead(),
					klen: len(k), vlen: len(v), ksum: digest(k), vsum: digest(v)})
				s.Advance()
			}
		}()
		tr.whole = readAll(p, r)
		tr.obs = append(tr.obs, streamObs{at: p.Now(), read: dev.BytesRead()})
		if !bytes.Equal(r.File.Data(), run) {
			t.Error("reading the run changed its bytes")
		}
	})
	env.Run()
	return tr
}

// checkStreamMatchesReference returns the panic both readers raised, if any.
func checkStreamMatchesReference(t *testing.T, run []byte) (panicked string) {
	t.Helper()
	want := traceRun(t, run,
		func(p *sim.Proc, r *Run) kv.PairStream { return newRefStream(p, r) }, refReadRun, false)
	got := traceRun(t, run,
		func(p *sim.Proc, r *Run) kv.PairStream { return NewStream(p, r) }, readRun, true)
	if got.panicked != want.panicked {
		t.Fatalf("run of %d bytes: panic %q, reference %q", len(run), got.panicked, want.panicked)
	}
	if !bytes.Equal(got.whole, want.whole) || !bytes.Equal(got.whole, run) {
		t.Fatalf("run of %d bytes read back in full as %d bytes, reference %d", len(run), len(got.whole), len(want.whole))
	}
	if len(got.obs) != len(want.obs) {
		t.Fatalf("run of %d bytes: %d pairs and device events, reference %d", len(run), len(got.obs), len(want.obs))
	}
	for i := range want.obs {
		if !reflect.DeepEqual(got.obs[i], want.obs[i]) {
			t.Fatalf("run of %d bytes, observation %d: %+v, reference %+v", len(run), i, got.obs[i], want.obs[i])
		}
	}
	return want.panicked
}

// buildRun makes a run of valid pairs whose total length lands on (or, where
// no pair encodes to the last gap, just under) windows refill buffers plus
// delta bytes, with value lengths drawn from body, and tail appended raw —
// more pairs, a pair cut short, or bytes that are no pair at all.
func buildRun(body []byte, windows uint8, delta int16, tail []byte) []byte {
	pad := make([]byte, 8<<10) // stands in for a value when only its length matters
	target := int(windows%4)*streamBuf + int(delta)
	var run []byte
	for i := 0; ; i++ {
		key := []byte(fmt.Sprintf("k%07d", i))
		gap := target - len(run)
		if gap < kv.EncodedSize(key, nil) {
			break
		}
		vlen := 16
		if len(body) > 0 {
			vlen += int(body[i%len(body)]) * 19 % 4099
		}
		for vlen > 0 && kv.EncodedSize(key, pad[:vlen]) > gap {
			vlen--
		}
		if rest := gap - kv.EncodedSize(key, pad[:vlen]); rest > 0 && rest < kv.EncodedSize(key, nil)+2 {
			// Too little would be left for another pair: stretch this one.
			for try := vlen + rest; try > vlen; try-- {
				if kv.EncodedSize(key, pad[:try]) <= gap {
					vlen = try
					break
				}
			}
		}
		run = kv.AppendPair(run, key, bytes.Repeat([]byte{byte('a' + i%26)}, vlen))
	}
	return append(run, tail...)
}

// Stream and readRun must hand out the same pairs as the copying reader they
// replaced and charge the device the same reads — as many, as large, at the
// same virtual instants — for runs that end on, just before and just after a
// refill boundary, pairs that straddle one or span several, and runs whose
// tail is not a whole pair (the same panic, after the same reads).
func TestStreamMatchesReference(t *testing.T) {
	giant := kv.AppendPair(nil, []byte("giant"), bytes.Repeat([]byte("g"), 2*streamBuf+4321))
	tails := map[string][]byte{
		"clean":         nil,
		"more-pairs":    kv.AppendPair(kv.AppendPair(nil, []byte("y"), []byte("1")), []byte("z"), nil),
		"cut-short":     {5, 3, 'a', 'b'},
		"header-only":   {0x85},
		"length-beyond": {2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 'k', 'k'},
		"giant-pair":    giant,
		"giant-cut":     giant[:len(giant)-7],
	}
	bodies := [][]byte{nil, {0}, {3, 250, 17, 99, 1, 214}}
	for name, tail := range tails {
		for windows := uint8(0); windows < 4; windows++ {
			for _, delta := range []int16{-1, 0, 1, -300, 300} {
				run := buildRun(bodies[(int(windows)+int(delta)+300)%len(bodies)], windows, delta, tail)
				if target := int(windows)*streamBuf + int(delta); target > 40 && len(run) != target+len(tail) {
					t.Fatalf("buildRun made %d bytes before the tail, want %d", len(run)-len(tail), target)
				}
				t.Run(fmt.Sprintf("%s/%d%+d", name, windows, delta), func(t *testing.T) {
					panicked := checkStreamMatchesReference(t, run)
					if _, _, n := kv.DecodePair(tail); (panicked != "") != (len(tail) > 0 && n == 0) {
						t.Fatalf("panic %q over a tail of %d bytes whose first pair decodes to %d", panicked, len(tail), n)
					}
				})
			}
		}
	}
}

func FuzzStreamMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(0), int16(0), []byte{})
	f.Add([]byte{3, 250, 17}, uint8(1), int16(0), []byte{})               // ends exactly on a refill boundary
	f.Add([]byte{0}, uint8(2), int16(-1), []byte{1, 1, 'k', 'v'})         // a pair straddles the second boundary
	f.Add([]byte{9, 9, 200}, uint8(1), int16(1), []byte{5, 3, 'a'})       // trailing partial record
	f.Add([]byte{255}, uint8(3), int16(-200), []byte{0, 0, 0, 0, 0x80})   // empty pairs, then half a header
	f.Add([]byte{42}, uint8(0), int16(100), bytes.Repeat([]byte{1}, 300)) // (\x01-keyed, \x01-long) pairs as raw bytes
	f.Fuzz(func(t *testing.T, body []byte, windows uint8, delta int16, tail []byte) {
		checkStreamMatchesReference(t, buildRun(body, windows, delta, tail))
	})
}
