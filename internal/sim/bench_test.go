package sim

import "testing"

// Benchmarks of the event loop itself. One op is one blocking call (or one
// process, for SpawnExit). Each shape hands its op to a measure function
// once its environment is built and warmed, so the benchmarks here and the
// budgets in alloc_test.go time and count the same steady state.

// benchOps returns a measure function that times b.N ops, issued as whole
// rounds of perRound ops each.
func benchOps(b *testing.B, perRound int) func(round func()) {
	return func(round func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for s := 0; s < (b.N+perRound-1)/perRound; s++ {
			round()
		}
		b.StopTimer()
	}
}

// selfWake runs one process, so every sleep is its own next event and takes
// the fast path, and hands measure one sleep.
func selfWake(measure func(op func())) {
	e := New()
	e.Go("lone", func(p *Proc) { measure(func() { p.Sleep(Microsecond) }) })
	e.Run()
}

// runInterleaved spawns procs processes that call body until the first of
// them has run measure. A round is the first process's call, while the
// others make theirs. measure gets it after 16 untimed rounds, by which time
// every process has started and every queue has its capacity.
func runInterleaved(e *Env, procs int, body func(p *Proc), measure func(round func())) {
	done := false
	for i := 0; i < procs; i++ {
		e.Go("proc", func(p *Proc) {
			for s := 0; s < 16; s++ {
				body(p)
			}
			if i == 0 {
				measure(func() { body(p) })
				done = true
			}
			for !done {
				body(p)
			}
		})
	}
	e.Run()
}

// sleepInterleaved64 has the shape of bench's sim.events_per_s probe: 64
// processes waking at the same instants, so every sleep goes through the
// heap and a coroutine switch.
func sleepInterleaved64(measure func(round func())) {
	runInterleaved(New(), 64, func(p *Proc) { p.Sleep(Microsecond) }, measure)
}

// resourceUseContended: 16 processes on a 4-unit resource, twelve of them
// queued at any time.
func resourceUseContended(measure func(round func())) {
	e := New()
	r := e.NewResource("contended", 4)
	runInterleaved(e, 16, func(p *Proc) { r.Use(p, 1, Microsecond) }, measure)
}

// spawnExit hands measure a process's fixed cost: spawn, one resume and
// exit, from a driver that lets each child finish before spawning the next.
func spawnExit(measure func(op func())) {
	e := New()
	e.Go("driver", func(p *Proc) {
		spawn := func() {
			e.Go("child", func(*Proc) {})
			p.Yield()
		}
		spawn()
		measure(spawn)
	})
	e.Run()
}

func BenchmarkSleepSelfWake(b *testing.B)        { selfWake(benchOps(b, 1)) }
func BenchmarkSleepInterleaved64(b *testing.B)   { sleepInterleaved64(benchOps(b, 64)) }
func BenchmarkResourceUseContended(b *testing.B) { resourceUseContended(benchOps(b, 16)) }
func BenchmarkSpawnExit(b *testing.B)            { spawnExit(benchOps(b, 1)) }
