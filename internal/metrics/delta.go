package metrics

// Delta is an ordered batch of counter increments recorded off the event
// loop. Pooled work closures must not touch a shared Counters bag directly:
// even though Counters is mutex-safe, map iteration order and float
// summation order would then depend on real-goroutine interleaving. A
// closure instead accumulates into its own Delta and the submitting process
// applies it after the join, at a deterministic point in virtual order.
// Increments apply in the order they were recorded, so repeated runs sum
// identically.
type Delta struct {
	names []string
	vals  []float64
}

// Add accumulates v into name. Repeats of a name fold into the earlier
// entry, keeping application order independent of how many times a closure
// touched the counter.
func (d *Delta) Add(name string, v float64) {
	for i, n := range d.names {
		if n == name {
			d.vals[i] += v
			return
		}
	}
	d.names = append(d.names, name)
	d.vals = append(d.vals, v)
}

// ApplyTo drains the delta into c in recorded order and resets it for
// reuse.
func (d *Delta) ApplyTo(c *Counters) {
	for i, n := range d.names {
		c.Add(n, d.vals[i])
	}
	d.names = d.names[:0]
	d.vals = d.vals[:0]
}
