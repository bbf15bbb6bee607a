package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// passResult is what one pass over a workload's jobs reports back to the
// harness, whichever clock or layer the number came from.
type passResult struct {
	// ops counts job calls (Run, RunDelta, or one fleet job); failed counts
	// those that returned an error, were rejected, or whose OutputChecksum
	// differed from the verified one.
	ops, failed int
	errs        []string
	// records is the number of input records the pass's jobs were asked to
	// map, counted by the harness from its own generated blocks.
	records int64
	// virtualS sums the simulated makespans of the pass's jobs.
	virtualS float64

	// Filled on every pass but only reported by the traced run.
	jobWallS float64            // host seconds inside job calls
	closureS float64            // Σ Result.Pool.Busy
	spanS    map[string]float64 // host seconds inside job calls, by span metric name
	counters map[string]float64 // Σ Result.Counters, by the repo's counter names
	layer    map[string]float64 // counts and virtual-clock numbers by metric name
	// scale, set by the harness after the pass, converts the host seconds
	// above to the reference host speed (see calibrator).
	scale float64
}

func newPassResult() passResult {
	return passResult{spanS: map[string]float64{}, counters: map[string]float64{}, layer: map[string]float64{}}
}

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// sample is one timed pass's end-to-end measurements. WallS and CPUS are
// scaled to the reference host speed (see calibrator); RawWallS and RawCPUS
// are what the clocks read and CalibS what the calibration kernel took
// around the pass.
type sample struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	RawWallS   float64 `json:"raw_wall_s"`
	RawCPUS    float64 `json:"raw_cpu_s"`
	CalibS     float64 `json:"calib_s"`
	Allocs     float64 `json:"allocs"`
	AllocBytes float64 `json:"alloc_bytes"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
	VirtualS   float64 `json:"virtual_makespan_s"`
	Records    int64   `json:"records"`
	Ops        int     `json:"ops"`
	Failed     int     `json:"ops_failed"`
}

const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	allocObjsMetric   = "/gc/heap/allocs:objects"
	allocBytesMetric  = "/gc/heap/allocs:bytes"
)

// heapSampler tracks the high-water mark of heap bytes in use with a 20 ms
// poll of runtime/metrics, which does not stop the world. It is the one
// goroutine the harness runs beside the measured work.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				h.observe(s[0].Value.Uint64())
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new high-water interval at the current heap size.
func (h *heapSampler) reset() { h.peak.Store(heapInUse()) }

// peakMB closes the interval and returns its high-water mark.
func (h *heapSampler) peakMB() float64 {
	h.observe(heapInUse())
	return float64(h.peak.Load()) / (1 << 20)
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func allocCounters() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: allocObjsMetric}, {Name: allocBytesMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// The sandbox this runs in shares its cores: for tens of seconds at a time
// the same code runs 20-30 % slower, CPU seconds included, so no statistic
// over one run's passes can repeat from run to run. The harness therefore
// times a fixed kernel of its own — a comparison sort of byte keys, a hash
// table fill and a walk over 8 MB, the instruction mix of the code under test
// but none of its code — before and after every pass and set-up, and scales
// the host-clock durations it reports to a host on which that kernel takes
// calibNominalS, its time here when the host is quiet. Slow periods slow
// kernel and workload alike, if not exactly alike: measured over ten runs per
// workload, the spread of wall_s falls from 15 % to 2-4 % on a mostly quiet
// host and from 30-80 % to 8-23 % (range) on a busy one. A second, memory-
// latency kernel was tried beside this one and explained nothing more. A
// change to the repo cannot move the kernel.
const calibNominalS = 0.0105

type calibrator struct {
	keys  [][]byte
	idx   []int32
	arena []byte
	sink  uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{keys: make([][]byte, 1<<15), idx: make([]int32, 1<<15), arena: make([]byte, 8<<20)}
	x := uint64(88172645463325252)
	for i := range c.keys {
		k := make([]byte, 16)
		for j := range k {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k[j] = 'a' + byte(x%26)
		}
		c.keys[i] = k
	}
	c.kernel() // first touch of the arena is not part of any measurement
	return c
}

func (c *calibrator) kernel() float64 {
	t0 := time.Now()
	for i := range c.idx {
		c.idx[i] = int32(i)
	}
	sort.Slice(c.idx, func(a, b int) bool { return bytes.Compare(c.keys[c.idx[a]], c.keys[c.idx[b]]) < 0 })
	m := make(map[uint64]int32, 1024)
	for i, k := range c.keys {
		h := uint64(14695981039346656037)
		for _, b := range k {
			h = (h ^ uint64(b)) * 1099511628211
		}
		m[h%8192] += int32(i)
	}
	for i := 0; i < len(c.arena); i += 64 {
		c.arena[i]++
		c.sink += uint64(c.arena[i])
	}
	c.sink += uint64(len(m))
	return time.Since(t0).Seconds()
}

// measure returns the median of three kernel runs, in seconds.
func (c *calibrator) measure() float64 {
	return median([]float64{c.kernel(), c.kernel(), c.kernel()})
}

// scaled times fn and returns its host seconds as read and the factor that
// scales them to the reference host speed, from the kernel's time before and
// after.
func (c *calibrator) scaled(fn func()) (rawS, calibS, scale float64) {
	before := c.measure()
	t0 := time.Now()
	fn()
	rawS = time.Since(t0).Seconds()
	calibS = (before + c.measure()) / 2
	return rawS, calibS, calibNominalS / calibS
}

// meter is what every measured pass shares: the calibration kernel and the
// heap sampler.
type meter struct {
	cal  *calibrator
	heap *heapSampler
}

func newMeter() *meter { return &meter{cal: newCalibrator(), heap: startHeapSampler()} }

func (m *meter) close() { m.heap.close() }

// timedPass runs one untraced pass with the protocol every timing shares: a
// collection first so one pass's garbage is not charged to the next, then
// wall clock, CPU time, allocation counters and the heap high-water mark
// around the call, with the calibration kernel outside all of them.
func (m *meter) timedPass(pass func() passResult) (sample, passResult) {
	runtime.GC()
	var res passResult
	var s sample
	var scale float64
	s.RawWallS, s.CalibS, scale = m.cal.scaled(func() {
		m.heap.reset()
		objs0, bytes0 := allocCounters()
		cpu0 := cpuSeconds()
		res = pass()
		s.RawCPUS = cpuSeconds() - cpu0
		objs1, bytes1 := allocCounters()
		s.Allocs, s.AllocBytes = float64(objs1-objs0), float64(bytes1-bytes0)
		s.PeakHeapMB = m.heap.peakMB()
	})
	s.WallS, s.CPUS = s.RawWallS*scale, s.RawCPUS*scale
	s.VirtualS, s.Records, s.Ops, s.Failed = res.virtualS, res.records, res.ops, res.failed
	res.scale = scale
	return s, res
}
