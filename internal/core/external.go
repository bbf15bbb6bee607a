package core

import (
	"fmt"

	"onepass/internal/disk"
	"onepass/internal/engine"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/sortmerge"
	"onepass/internal/trace"
)

// spillSet is the on-disk side of all three hash techniques: K bucket files
// of tagged (key, payload) entries, written through small write-behind
// buffers, and an external-hash processor that loads one bucket at a time
// into a state table, recursively splitting any bucket that does not fit
// the memory budget (classic Hybrid Hash / Grace recursion).
type spillSet struct {
	rc     *reduceCtx
	level  int
	prefix string
	bufs   [][]byte
	files  []*disk.File
	// Bytes is the total spill volume written — the paper's reduce-side
	// internal spill I/O, the quantity §V reports dropping by three orders
	// of magnitude under hot-key hashing.
	Bytes int64
}

// spillBufSize is the per-bucket write-behind buffer.
const spillBufSize = 64 << 10

// maxRecursion caps external-hash recursion depth; beyond it a bucket is
// processed even if over budget (counted, never silent).
const maxRecursion = 8

func newSpillSet(rc *reduceCtx, level int, prefix string) *spillSet {
	return &spillSet{
		rc: rc, level: level, prefix: prefix,
		bufs:  make([][]byte, rc.opts.SpillBuckets),
		files: make([]*disk.File, rc.opts.SpillBuckets),
	}
}

// bucketOf assigns a key to a bucket at this set's hash level.
func (ss *spillSet) bucketOf(key []byte) int {
	return ss.rc.hashAt(ss.level).Bucket(key, ss.rc.opts.SpillBuckets)
}

// add spills one tagged entry into bucket b.
func (ss *spillSet) add(p *sim.Proc, b int, key, payload []byte, f form) {
	ss.put(b, key, payload, f)
	ss.flushFull(p, b)
}

// put appends one tagged entry to bucket b's buffer without writing it.
func (ss *spillSet) put(b int, key, payload []byte, f form) {
	ss.bufs[b] = kv.AppendTaggedPair(ss.bufs[b], key, byte(f), payload)
}

// flushFull writes bucket b's buffer out once it is full.
func (ss *spillSet) flushFull(p *sim.Proc, b int) {
	if len(ss.bufs[b]) >= spillBufSize {
		ss.flushBucket(p, b)
	}
}

// flushBucket writes bucket b's buffer to its file. The buffer leaves the set
// for the CPU charge and the write, so entries the other arrival path spills
// to b meanwhile start a new buffer instead of landing in one that is being
// written and then truncated; the old one comes back if none was started.
func (ss *spillSet) flushBucket(p *sim.Proc, b int) {
	buf := ss.bufs[b]
	if len(buf) == 0 {
		return
	}
	ss.bufs[b] = nil
	store := ss.rc.node.ScratchStore()
	if ss.files[b] == nil {
		ss.files[b] = store.Create(fmt.Sprintf("%s/bucket-%02d", ss.prefix, b), false)
	}
	n := int64(len(buf))
	ss.rc.node.Compute(p, engine.Dur(float64(n), ss.rc.costs.SerializeNsPerByte), engine.PhaseHash)
	store.Append(p, ss.files[b], buf) // copies: the buffer refills in place
	if ss.bufs[b] == nil {
		ss.bufs[b] = buf[:0]
	}
	ss.rc.join()
	ss.Bytes += n
	ss.rc.rt.Counters.Add(engine.CtrReduceSpillBytes, float64(n))
	if ss.rc.rt.Auditing() {
		ss.rc.rt.Audit.SpillWritten(ss.rc.node.ID, n)
	}
	if ss.rc.rt.Tracing() {
		ss.rc.rt.Emit(trace.Spill, "hash-bucket", ss.rc.node.ID, ss.rc.r, 0,
			trace.Num("bytes", float64(n)), trace.Num("bucket", float64(b)),
			trace.Num("level", float64(ss.level)))
	}
}

// hasData reports whether bucket b holds anything.
func (ss *spillSet) hasData(b int) bool {
	return len(ss.bufs[b]) > 0 || (ss.files[b] != nil && ss.files[b].Size() > 0)
}

// anySpilled reports whether any bucket holds anything.
func (ss *spillSet) anySpilled() bool {
	for b := range ss.bufs {
		if ss.hasData(b) {
			return true
		}
	}
	return false
}

// entry is an in-memory tagged contribution handed to processBucket.
type entry struct {
	key     []byte
	payload []byte
	f       form
}

// processBucket loads bucket b plus the given in-memory entries into the
// reducer's state table for the next hash level — restarted, so it behaves
// as a freshly built one — and hands the loaded table to final, which
// finishes every key. If the table outgrows the budget mid-load, the
// remainder (and the table) divert into a child spill set one level down,
// which is then processed recursively.
func (ss *spillSet) processBucket(p *sim.Proc, b int, extra []entry, final func(keys engine.KeyWalk)) {
	ss.flushBucket(p, b)
	if ss.rc.rt.Tracing() {
		ss.rc.rt.Emit(trace.MergePass, "external-bucket", ss.rc.node.ID, ss.rc.r, 0,
			trace.Num("bucket", float64(b)), trace.Num("level", float64(ss.level)))
	}
	nextLevel := ss.level + 1
	st := ss.rc.externalTable(nextLevel)

	var child *spillSet
	divert := func(key, payload []byte, f form) {
		if child == nil {
			child = newSpillSet(ss.rc, nextLevel, fmt.Sprintf("%s/b%02d", ss.prefix, b))
			// The resident table moves down with everything else, which
			// leaves it free for this set's next bucket once the children
			// (on the tables of deeper levels) are done.
			st.iterate(func(k, s []byte) bool {
				child.add(p, child.bucketOf(k), k, s, formState)
				return true
			})
		}
		child.add(p, child.bucketOf(key), key, payload, f)
	}
	over := false
	process := func(key, payload []byte, f form) {
		if over {
			divert(key, payload, f)
			return
		}
		st.fold(key, payload, f)
		if st.usedBytes() > ss.rc.budget {
			// Recursing only helps if the bucket can actually be split: a
			// single key whose state alone exceeds the budget would be
			// rewritten at every level without ever fitting.
			if st.len() > 1 && nextLevel < maxRecursion {
				over = true
			} else {
				ss.rc.rt.Counters.Add("core.overbudget.buckets", 1)
			}
		}
	}

	for _, e := range extra {
		process(e.key, e.payload, e.f)
	}
	if f := ss.files[b]; f != nil && f.Size() > 0 {
		if ss.rc.rt.Auditing() {
			// The stream below drains the bucket file exactly once.
			ss.rc.rt.Audit.SpillRead(ss.rc.node.ID, f.Size())
		}
		stream := sortmerge.NewStream(p, &sortmerge.Run{Store: ss.rc.node.ScratchStore(), File: f})
		n := 0
		var bytes int64
		for {
			k, v, ok := stream.Peek()
			if !ok {
				break
			}
			process(k, v[1:], form(v[0]))
			n++
			bytes += int64(len(k) + len(v))
			stream.Advance()
		}
		ss.rc.chargeFold(p, n, bytes)
	}
	if ss.files[b] != nil {
		ss.rc.node.ScratchStore().Delete(ss.files[b].Name())
		ss.files[b] = nil
	}
	if child != nil {
		for cb := 0; cb < ss.rc.opts.SpillBuckets; cb++ {
			if child.hasData(cb) {
				child.processBucket(p, cb, nil, final)
			}
		}
		return
	}
	final(st)
}
