package disk

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"onepass/internal/sim"
)

func TestSequentialReadTime(t *testing.T) {
	env := sim.New()
	d := NewDevice(env, "d0", HDD)
	env.Go("r", func(p *sim.Proc) {
		d.Read(p, 100e6, true) // 100 MB at 100 MB/s = 1s + 24 chunk seeks of 0.8ms
	})
	env.Run()
	chunks := math.Ceil(100e6 / float64(4<<20))
	want := 1.0 + chunks*0.0008
	if got := env.Now().Seconds(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
	if d.BytesRead() != 100e6 {
		t.Fatalf("bytesRead = %v", d.BytesRead())
	}
}

func TestRandomReadSlowerThanSequential(t *testing.T) {
	elapsed := func(sequential bool) float64 {
		env := sim.New()
		d := NewDevice(env, "d0", HDD)
		env.Go("r", func(p *sim.Proc) { d.Read(p, 50e6, sequential) })
		env.Run()
		return env.Now().Seconds()
	}
	seq, rnd := elapsed(true), elapsed(false)
	if rnd < 2*seq {
		t.Fatalf("random (%.3fs) should be much slower than sequential (%.3fs)", rnd, seq)
	}
}

func TestSSDRandomPenaltySmall(t *testing.T) {
	ratio := func(p Profile) float64 {
		run := func(sequential bool) float64 {
			env := sim.New()
			d := NewDevice(env, "d0", p)
			env.Go("r", func(pr *sim.Proc) { d.Read(pr, 50e6, sequential) })
			env.Run()
			return env.Now().Seconds()
		}
		return run(false) / run(true)
	}
	if hdd, ssd := ratio(HDD), ratio(SSD); ssd > hdd/2 {
		t.Fatalf("SSD random/seq ratio %.2f should be far below HDD's %.2f", ssd, hdd)
	}
}

func TestContentionSerializes(t *testing.T) {
	env := sim.New()
	d := NewDevice(env, "d0", HDD)
	var done []float64
	for i := 0; i < 2; i++ {
		env.Go("r", func(p *sim.Proc) {
			d.Read(p, 50e6, true)
			done = append(done, p.Now().Seconds())
		})
	}
	env.Run()
	// Two 0.5s streams on one device must take ~1s total, not 0.5s.
	if env.Now().Seconds() < 1.0 {
		t.Fatalf("contended elapsed = %v, want >= 1s", env.Now().Seconds())
	}
	// Chunked interleaving: both finish near the end, neither gets the
	// device exclusively first.
	if done[0] < 0.9*done[1] {
		t.Fatalf("streams did not interleave: %v", done)
	}
}

func TestSlowdownInjection(t *testing.T) {
	run := func(slow float64) float64 {
		env := sim.New()
		d := NewDevice(env, "d0", HDD)
		d.SetSlowdown(slow)
		env.Go("r", func(p *sim.Proc) { d.Read(p, 10e6, true) })
		env.Run()
		return env.Now().Seconds()
	}
	if r := run(3) / run(1); math.Abs(r-3) > 1e-6 {
		t.Fatalf("slowdown ratio = %v, want 3", r)
	}
}

func TestZeroByteTransferIsFree(t *testing.T) {
	env := sim.New()
	d := NewDevice(env, "d0", HDD)
	env.Go("r", func(p *sim.Proc) {
		d.Read(p, 0, true)
		d.Write(p, -5, true)
	})
	env.Run()
	if env.Now() != 0 || d.BytesRead() != 0 || d.BytesWritten() != 0 {
		t.Fatal("zero/negative transfers should be free")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	env := sim.New()
	d := NewDevice(env, "d0", SSD)
	s := NewStore(d)
	payload := []byte("hello one-pass analytics")
	env.Go("w", func(p *sim.Proc) {
		f := s.Create("run0", false)
		s.Append(p, f, payload[:5])
		s.Append(p, f, payload[5:])
		if got := s.NewReader(f, 8).Next(p, f.Size()); !bytes.Equal(got, payload) {
			t.Errorf("round trip = %q", got)
		}
		if f.Size() != int64(len(payload)) {
			t.Errorf("size = %d", f.Size())
		}
	})
	env.Run()
	if d.BytesWritten() != float64(len(payload)) {
		t.Fatalf("bytesWritten = %v", d.BytesWritten())
	}
}

func TestStorePutAdoptsAtAppendCharge(t *testing.T) {
	// Put must cost exactly what Append costs and hand back the caller's own
	// bytes, with capacity clipped so a later Append cannot grow into the
	// slab the slice was cut from.
	slab := []byte("frame-bytes|neighbour")
	data := slab[:11]
	elapsed := func(write func(s *Store, p *sim.Proc, f *File)) (sim.Time, *File) {
		env := sim.New()
		s := NewStore(NewDevice(env, "d0", HDD))
		var f *File
		env.Go("w", func(p *sim.Proc) {
			f = s.Create("out", false)
			write(s, p, f)
		})
		env.Run()
		return env.Now(), f
	}
	tAppend, _ := elapsed(func(s *Store, p *sim.Proc, f *File) { s.Append(p, f, data) })
	tPut, f := elapsed(func(s *Store, p *sim.Proc, f *File) {
		s.Put(p, f, data)
		if &f.Data()[0] != &slab[0] {
			t.Error("Put copied the slice instead of adopting it")
		}
		s.Append(p, f, []byte("+tail"))
	})
	tBoth, _ := elapsed(func(s *Store, p *sim.Proc, f *File) {
		s.Append(p, f, data)
		s.Append(p, f, []byte("+tail"))
	})
	if tPut != tBoth || tAppend >= tBoth {
		t.Fatalf("Put+Append took %v, Append+Append %v (one Append %v)", tPut, tBoth, tAppend)
	}
	if string(f.Data()) != "frame-bytes+tail" || f.Size() != 16 {
		t.Fatalf("file = %q (%d bytes)", f.Data(), f.Size())
	}
	if string(slab) != "frame-bytes|neighbour" {
		t.Fatalf("Append after Put wrote through into the caller's slab: %q", slab)
	}
}

func TestStoreOpenMissing(t *testing.T) {
	s := NewStore(NewDevice(sim.New(), "d", HDD))
	if _, err := s.Open("nope"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestStoreDeleteAndNames(t *testing.T) {
	s := NewStore(NewDevice(sim.New(), "d", HDD))
	s.Create("b", false)
	s.Create("a", false)
	if names := s.Names(); len(names) != 2 || names[0] != "a" {
		t.Fatalf("names = %v", names)
	}
	s.Delete("a")
	if names := s.Names(); len(names) != 1 || names[0] != "b" {
		t.Fatal("delete failed")
	}
}

func TestDiscardFileTracksSizeOnly(t *testing.T) {
	env := sim.New()
	s := NewStore(NewDevice(env, "d", HDD))
	env.Go("w", func(p *sim.Proc) {
		f := s.Create("sink", true)
		s.Append(p, f, make([]byte, 1000))
		if f.Size() != 1000 {
			t.Errorf("size = %d", f.Size())
		}
		if len(f.data) != 0 {
			t.Errorf("discard file retained %d bytes", len(f.data))
		}
	})
	env.Run()
	if f, _ := s.Open("sink"); f.Size() != 1000 {
		t.Fatalf("stored size = %d", f.Size())
	}
}

func TestReaderStreamsAndCharges(t *testing.T) {
	env := sim.New()
	d := NewDevice(env, "d0", SSD)
	s := NewStore(d)
	content := make([]byte, 10000)
	for i := range content {
		content[i] = byte(i % 251)
	}
	env.Go("rw", func(p *sim.Proc) {
		f := s.Create("run", false)
		s.Append(p, f, content)
		r := s.NewReader(f, 4096)
		var got []byte
		for {
			chunk := r.Next(p, 1500)
			if chunk == nil {
				break
			}
			got = append(got, chunk...)
		}
		if !bytes.Equal(got, content) {
			t.Error("streamed content mismatch")
		}
		if rest := r.Next(p, 1); rest != nil {
			t.Errorf("%d bytes left after the end", len(rest))
		}
	})
	env.Run()
	if d.BytesRead() != float64(len(content)) {
		t.Fatalf("bytesRead = %v, want %d", d.BytesRead(), len(content))
	}
}

func TestReaderOnDiscardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewStore(NewDevice(sim.New(), "d", HDD))
	f := s.Create("sink", true)
	s.NewReader(f, 0)
}

// Property: streaming any content through a Reader with any buffer and
// request sizes reproduces the content exactly and charges exactly its size.
func TestReaderProperty(t *testing.T) {
	f := func(content []byte, buf, req uint16) bool {
		env := sim.New()
		d := NewDevice(env, "d0", SSD)
		s := NewStore(d)
		ok := true
		env.Go("t", func(p *sim.Proc) {
			file := s.Create("f", false)
			s.Append(p, file, content)
			r := s.NewReader(file, int64(buf%512)+1)
			var got []byte
			for {
				c := r.Next(p, int64(req%97)+1)
				if c == nil {
					break
				}
				got = append(got, c...)
			}
			ok = bytes.Equal(got, content)
		})
		env.Run()
		return ok && d.BytesRead() == float64(len(content))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
