package engine

import "onepass/internal/kv"

// MapBuffers is a free list of map-output buffers (data, refs and sort
// scratch) together with the count of map tasks yet to start among the
// jobs that draw on it. A released buffer is kept only while the list is
// shorter than that count: a buffer no task is left to reuse would only
// inflate the heap through the reduce phase.
//
// Every Runtime starts with a list of its own, which counts the blocks its
// RunMaps has yet to hand out, so a lone job with fewer blocks than map
// slots recycles nothing. A service that runs many jobs on one cluster
// shares one list across them and also counts, through Expect, the blocks
// of every job still waiting in a queue; its small jobs then reuse the
// buffers earlier jobs released.
//
// The list is unlocked: it is used on the event loop only.
type MapBuffers struct {
	free      []*kv.Buffer
	unstarted int
}

// NewMapBuffers returns an empty list that expects no map tasks.
func NewMapBuffers() *MapBuffers { return &MapBuffers{} }

// Expect adds n map tasks yet to start; a negative n withdraws them. A
// service counts a queued job's blocks from its submission and withdraws
// them at launch, just before Start makes RunMaps count them again.
func (m *MapBuffers) Expect(n int) { m.unstarted += n }

// Len is the number of buffers the list holds.
func (m *MapBuffers) Len() int { return len(m.free) }

// Unstarted is the number of map tasks the list still expects.
func (m *MapBuffers) Unstarted() int { return m.unstarted }

func (m *MapBuffers) acquire(capBytes int) *kv.Buffer {
	if n := len(m.free); n > 0 {
		b := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		b.Reset()
		return b
	}
	return kv.NewBuffer(capBytes)
}

func (m *MapBuffers) release(b *kv.Buffer) {
	if b != nil && len(m.free) < m.unstarted {
		m.free = append(m.free, b)
	}
}

// pass is AcquireBuffer for a map task that fills no buffer (a declared
// job's pairs fold into its combine tables): where that task would have
// taken a buffer the list kept for it, the buffer goes to the collector
// instead. So a shared list empties as its last map tasks start, whichever
// jobs they belong to. A list of its own never holds a buffer when its job
// fills none.
func (m *MapBuffers) pass() {
	if n := len(m.free); n > max(m.unstarted, 0) {
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	}
}
