package metrics

// Delta is an ordered batch of counter increments recorded off the event
// loop. Pooled work closures must not touch a shared Counters bag directly:
// even though Counters is mutex-safe, map iteration order and float
// summation order would then depend on real-goroutine interleaving. A
// closure instead accumulates into its own Delta and the submitting process
// applies it after the join, at a deterministic point in virtual order.
// Increments apply in the order they were recorded, so repeated runs sum
// identically.
//
// The first few names live in an array inside the Delta, as
// memtable.Table keeps its first segments: a map task records three, and
// a batch that size allocates nothing.
type Delta struct {
	n    int                   // names recorded
	head [deltaHead]deltaEntry // the first names
	rest []deltaEntry          // the names past head
}

const deltaHead = 4

type deltaEntry struct {
	name string
	val  float64
}

// entry returns the i-th recorded name's entry.
func (d *Delta) entry(i int) *deltaEntry {
	if i < deltaHead {
		return &d.head[i]
	}
	return &d.rest[i-deltaHead]
}

// Add accumulates v into name. Repeats of a name fold into the earlier
// entry, keeping application order independent of how many times a closure
// touched the counter.
func (d *Delta) Add(name string, v float64) {
	for i := 0; i < d.n; i++ {
		if e := d.entry(i); e.name == name {
			e.val += v
			return
		}
	}
	if d.n < deltaHead {
		d.head[d.n] = deltaEntry{name, v}
	} else {
		d.rest = append(d.rest, deltaEntry{name, v})
	}
	d.n++
}

// ApplyTo drains the delta into c in recorded order and resets it for
// reuse.
func (d *Delta) ApplyTo(c *Counters) {
	for i := 0; i < d.n; i++ {
		e := d.entry(i)
		c.Add(e.name, e.val)
	}
	d.n = 0
	d.rest = d.rest[:0]
}
