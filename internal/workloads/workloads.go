// Package workloads implements the paper's four benchmark tasks (Table I):
// sessionization, page-frequency counting, and per-user click counting over
// the click stream, and inverted-index construction over web documents.
// Each workload supplies the map and reduce functions, a monoid where the
// analytic function is one, per-workload cost hints, and a single-threaded
// reference evaluation used by the cross-engine equivalence tests.
package workloads

import (
	"fmt"
	"strings"

	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/textfmt"
)

// Workload couples a job template with its input generator.
type Workload struct {
	Name string
	// Gen produces the content of input block i (deterministic).
	Gen func(block int, size int64) []byte
	// Job is the job template; the runner fills in paths, reducer count,
	// and memory settings.
	Job engine.Job
	// Clicks marks the input as the click log, the one input a seeded
	// gen.Delta can evolve.
	Clicks bool
}

// named is the table of workloads that can be asked for by name: runjob,
// jobserve tenant mixes and the experiment driver's run specs all read it.
var named = []struct {
	name string
	make func(cc gen.ClickConfig, dc gen.DocConfig) *Workload
}{
	{"sessionization", func(cc gen.ClickConfig, _ gen.DocConfig) *Workload { return Sessionization(cc) }},
	{"windowed-sessionization", func(cc gen.ClickConfig, _ gen.DocConfig) *Workload { return WindowedSessionization(cc, 0) }},
	{"page-frequency", func(cc gen.ClickConfig, _ gen.DocConfig) *Workload { return PageFrequency(cc) }},
	{"per-user-count", func(cc gen.ClickConfig, _ gen.DocConfig) *Workload { return PerUserCount(cc) }},
	{"inverted-index", func(_ gen.ClickConfig, dc gen.DocConfig) *Workload { return InvertedIndex(dc) }},
}

// Names lists the workloads ByName builds, for usage text.
func Names() []string {
	out := make([]string, len(named))
	for i, e := range named {
		out[i] = e.name
	}
	return out
}

// ByName builds the named workload over whichever of the two input
// configurations it reads. The error of an unknown name lists the valid ones.
func ByName(name string, cc gen.ClickConfig, dc gen.DocConfig) (*Workload, error) {
	for _, e := range named {
		if e.name == name {
			return e.make(cc, dc), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// LineReader yields each non-empty line of block (without its newline),
// including a final line that has no newline.
func LineReader(block []byte, yield func(rec []byte)) {
	rest := block
	for len(rest) > 0 {
		line, r, ok := textfmt.NextLine(rest)
		if !ok {
			yield(rest)
			return
		}
		rest = r
		if len(line) > 0 {
			yield(line)
		}
	}
}

// BinaryClickReader yields each framed binary click record.
func BinaryClickReader(block []byte, yield func(rec []byte)) {
	off := 0
	for off < len(block) {
		_, n := textfmt.ParseClickBinary(block[off:])
		if n == 0 {
			return
		}
		yield(block[off : off+n])
		off += n
	}
}

// Reference evaluates the workload's semantics directly — map every record,
// group by key, reduce each group — with no partitioning, sorting, spilling,
// or merging in the way. Engines must reproduce exactly this output.
func Reference(w *Workload, blocks [][]byte) map[string]string {
	groups := make(map[string][][]byte)
	var order []string
	emit := func(key, val []byte) {
		k := string(key)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], append([]byte(nil), val...))
	}
	for _, b := range blocks {
		w.Job.Reader(b, func(rec []byte) { w.Job.Map(rec, emit) })
	}
	out := make(map[string]string, len(groups))
	for _, k := range order {
		w.Job.Reduce([]byte(k), groups[k], func(key, val []byte) {
			out[string(key)] = string(val)
		})
	}
	return out
}

// sumValues folds ASCII decimal values — the body of the counting reducers.
func sumValues(vals [][]byte) uint64 {
	var total uint64
	for _, v := range vals {
		total += parseUint(v)
	}
	return total
}

func parseUint(b []byte) uint64 {
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + uint64(c-'0')
	}
	return n
}

func appendUint(dst []byte, n uint64) []byte {
	if n == 0 {
		return append(dst, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for n > 0 {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
	}
	return append(dst, tmp[i:]...)
}

// splitFixed flattens multi-record values (combiner outputs) into single
// fixed-width units, for postings handling.
func splitFixed(vals [][]byte, width int, f func(unit []byte)) {
	for _, v := range vals {
		for off := 0; off+width <= len(v); off += width {
			f(v[off : off+width])
		}
	}
}
