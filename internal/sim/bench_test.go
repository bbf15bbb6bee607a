package sim

import "testing"

// Benchmarks of the event loop itself. One op is one blocking call (or one
// process, for SpawnExit). Environments are built and warmed outside the
// timer, so allocs/op — what CI ratchets, at -benchtime=1x — is the loop's
// own steady state and the same at any iteration count.

// BenchmarkSleepSelfWake: one process, so every sleep is its own next event
// and takes the fast path. Must report 0 allocs/op.
func BenchmarkSleepSelfWake(b *testing.B) {
	e := New()
	e.Go("lone", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
		b.StopTimer()
	})
	e.Run()
}

// runInterleaved spawns procs processes that make b.N calls of body between
// them (rounded up to a whole round each) and runs them to completion. The
// timer starts when the first process finishes its untimed warm-up rounds, by
// which time every process has started and every queue has its capacity.
func runInterleaved(b *testing.B, e *Env, procs int, body func(p *Proc)) {
	rounds := (b.N + procs - 1) / procs
	for i := 0; i < procs; i++ {
		e.Go("proc", func(p *Proc) {
			for s := 0; s < 16; s++ {
				body(p)
			}
			if i == 0 {
				b.ResetTimer()
			}
			for s := 0; s < rounds; s++ {
				body(p)
			}
		})
	}
	b.ReportAllocs()
	e.Run()
}

// BenchmarkSleepInterleaved64 has the shape of bench's sim.events_per_s
// probe: 64 processes waking at the same instants, so every sleep goes
// through the heap and a coroutine switch.
func BenchmarkSleepInterleaved64(b *testing.B) {
	runInterleaved(b, New(), 64, func(p *Proc) { p.Sleep(Microsecond) })
}

// BenchmarkResourceUseContended: 16 processes on a 4-unit resource, twelve
// of them queued at any time.
func BenchmarkResourceUseContended(b *testing.B) {
	e := New()
	r := e.NewResource("contended", 4)
	runInterleaved(b, e, 16, func(p *Proc) { r.Use(p, 1, Microsecond) })
}

// BenchmarkSpawnExit measures a process's fixed cost: spawn, one resume and
// exit, from a driver that lets each child finish before spawning the next.
// Its allocs/op is what iter.Pull costs per process.
func BenchmarkSpawnExit(b *testing.B) {
	e := New()
	e.Go("driver", func(p *Proc) {
		spawn := func() {
			e.Go("child", func(*Proc) {})
			p.Yield()
		}
		spawn()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spawn()
		}
		b.StopTimer()
	})
	e.Run()
}
