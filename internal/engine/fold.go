package engine

import (
	"fmt"

	"onepass/internal/kv"
	"onepass/internal/memtable"
)

// Fold is a job's aggregation contract — Reduce plus an optional Monoid —
// resolved into what an engine does per key: hold one element, fold arriving
// values and partial elements into it, and finish it into the key's answer.
// With a declared monoid an element is a monoid element, which is also what
// Map emits. Without one it is the free monoid's: the key's raw values,
// length-framed and concatenated (kv.AppendFramed), which shrink nothing but
// give every engine, spill file and preserved partial one encoding to carry
// until Reduce runs over them at the end.
//
// A Fold keeps scratch between calls — Partial's element and Finish's value
// lists — so like the user functions it belongs to the thread that calls it
// (Runtime.StartJobWork): a pooled closure uses wj.Fold(), its worker's; a
// task on the event loop resolves its own from the job. Lift, Add, Merge and
// Into keep none on the Fold — a kv.Monoid is stateless, and Into grows an
// element in scratch its table's arena owns (memtable.Table.Scratch) — so a
// table built over an event-loop Fold may fold inside pooled closures.
type Fold struct {
	m      kv.Monoid
	final  func(key, elem []byte, emit Emit)
	reduce ReduceFunc
	name   string
	// spares is a stack of value lists for Finish, emptied of their values:
	// each call pops one and pushes it back, so calls that interleave
	// through a suspending emit each find a list of their own.
	spares [][][]byte
	out    []byte
}

// Fold resolves the job's aggregation contract. It is the one place a Job
// turns into combiner, per-key state and finish behaviour. A pool worker's
// clone returns the one Fold resolved when it was built.
func (j *Job) Fold() *Fold {
	if j.fold != nil {
		return j.fold
	}
	f := &Fold{m: j.Monoid, reduce: j.Reduce, name: j.Name}
	if fin, ok := j.Monoid.(interface {
		Final(key, elem []byte, emit Emit)
	}); ok {
		f.final = fin.Final
	}
	return f
}

// Declared reports whether elements combine into something smaller — the
// job declared a monoid — so that folding before the shuffle pays. The free
// monoid only concatenates.
func (f *Fold) Declared() bool { return f.m != nil }

// Lift appends to dst the element holding the single raw map value raw.
func (f *Fold) Lift(dst, raw []byte) []byte {
	if f.m != nil {
		// A map value is an element already (kv.Monoid's contract).
		return append(dst, raw...)
	}
	return kv.AppendFramed(dst, raw)
}

// Add folds one raw map value into elem, which it may grow in place.
func (f *Fold) Add(elem, raw []byte) []byte {
	if f.m != nil {
		return f.m.Combine(elem, raw)
	}
	return kv.AppendFramed(elem, raw)
}

// Merge folds the element other into elem, which it may grow in place.
func (f *Fold) Merge(elem, other []byte) []byte {
	if f.m != nil {
		return f.m.Combine(elem, other)
	}
	return append(elem, other...)
}

// Into folds x — a raw map value, or an element when isElem — into entry e of
// t, the entry Slot just returned for the key with inserted as it reported,
// and returns by how much the key's element grew. It is Lift, Add and Merge
// over an element that lives in the table's arena: a key's first element is
// placed exact-fit, the free monoid reserves what it is about to append (its
// need is known), and a declared Combine's result is taken as it comes — grown
// in place, or placed by SetElem when it left the region. A Combine that may
// outgrow the region works in the arena's scratch (Table.Scratch), so a key's
// fold allocates nothing but the regions SetElem places it in.
func (f *Fold) Into(t *memtable.Table, e int, inserted bool, x []byte, isElem bool) (grew int) {
	var elem []byte
	switch {
	case inserted && (isElem || f.m != nil):
		// An element already — a declared job's map value is one.
		t.SetElem(e, x)
		return len(x)
	case f.m != nil:
		elem = t.Scratch(e, len(x))
		grew = -len(elem)
		elem = f.m.Combine(elem, x)
	case isElem:
		elem = t.Room(e, len(x))
		grew = -len(elem)
		elem = append(elem, x...)
	default:
		elem = t.Room(e, kv.FramedLen(len(x)))
		grew = -len(elem)
		elem = kv.AppendFramed(elem, x)
	}
	t.SetElem(e, elem)
	return grew + len(elem)
}

// Partial folds one key's raw values into a single element and emits it
// under key: the combiner of a declared job, and the reduce of a job whose
// answer is the element itself (RunDelta's capture jobs). The emitted value
// is scratch — emit must consume it before returning, as every engine's does.
func (f *Fold) Partial(key []byte, vals [][]byte, emit Emit) {
	out := f.Lift(f.out[:0], vals[0])
	for _, v := range vals[1:] {
		out = f.Add(out, v)
	}
	f.out = out
	emit(key, out)
}

// Combiner returns Partial for a declared job and nil otherwise: the
// sort-merge engines combine sorted key groups with it, in the map task and
// again in each reduce-side spill.
func (f *Fold) Combiner() ReduceFunc {
	if f.m == nil {
		return nil
	}
	return f.Partial
}

// Elements returns the declared monoid stripped of its Final, or nil: what a
// job that wants f's elements as its output declares.
func (f *Fold) Elements() kv.Monoid {
	if f.m == nil {
		return nil
	}
	return struct{ kv.Monoid }{f.m}
}

// Finish emits key's answer from its folded element and returns how many
// values were finished into it: every raw value of an undeclared job, which
// Reduce folds here, or the one element of a declared job, which is the
// answer (or its Final's input). elem is only read. An undeclared job's elem
// that is not a whole number of frames — a state damaged on its way through
// a spill file — is an error naming the job and key, and nothing is emitted.
func (f *Fold) Finish(key, elem []byte, emit Emit) (values int, err error) {
	switch {
	case f.final != nil:
		f.final(key, elem, emit)
		return 1, nil
	case f.m != nil:
		emit(key, elem)
		return 1, nil
	}
	// An emit may suspend the calling process with another Finish on this
	// Fold interleaved (the hash engines' push and pull paths can both emit
	// a threshold answer; RunDelta's merge reducers share one Fold across a
	// job's reducers), and Reduce may go on reading vals after it: the call
	// holds a spare list until it returns, so an interleaved call pops
	// another, and only a deeper interleaving than any before grows one.
	var vals [][]byte
	if k := len(f.spares); k > 0 {
		vals, f.spares = f.spares[k-1], f.spares[:k-1]
	}
	defer func() {
		clear(vals) // a spare pins no value
		f.spares = append(f.spares, vals[:0])
	}()
	for rest := elem; len(rest) > 0; {
		v, next, ok := kv.NextFrame(rest)
		if !ok {
			return 0, fmt.Errorf("job %q: key %q: value-list state of %d bytes is not a whole number of frames", f.name, key, len(elem))
		}
		vals, rest = append(vals, v), next
	}
	f.reduce(key, vals, emit)
	return len(vals), nil
}
