package engine

import (
	"bytes"
	"strings"
	"testing"

	"onepass/internal/kv"
)

// meanOfBytes keeps (sum, count) and answers sum/count: a monoid whose
// answer is not its element.
type meanOfBytes struct{}

func (meanOfBytes) Combine(a, b []byte) []byte {
	a[0], a[1] = a[0]+b[0], a[1]+b[1]
	return a
}
func (meanOfBytes) Final(key, elem []byte, emit Emit) { emit(key, []byte{elem[0] / elem[1]}) }

func joinVals(key []byte, vals [][]byte, emit Emit) { emit(key, bytes.Join(vals, []byte(","))) }

// The three shapes of the contract resolve to one set of operations: what a
// table holds after Lift/Add/Merge, what Finish emits from it and how many
// values it reports, and whether there is a combiner.
func TestFoldResolvesEveryContractShape(t *testing.T) {
	for _, tc := range []struct {
		name     string
		job      Job
		vals     []string
		elem     string // after Lift(v0), Add(v1), Merge(Lift(v2))
		answer   string
		values   int
		combines bool
	}{
		{"undeclared", Job{Reduce: joinVals}, []string{"a", "", "ccc"}, "\x01a\x00\x03ccc", "a,,ccc", 3, false},
		{"monoid", Job{Reduce: joinVals, Monoid: byteSum{}}, []string{"\x01", "\x02", "\x04"}, "\x07", "\x07", 1, true},
		{"monoid with Final", Job{Reduce: joinVals, Monoid: meanOfBytes{}}, []string{"\x02\x01", "\x04\x01", "\x09\x01"}, "\x0f\x03", "\x05", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.job.Fold()
			elem := f.Lift(nil, []byte(tc.vals[0]))
			elem = f.Add(elem, []byte(tc.vals[1]))
			elem = f.Merge(elem, f.Lift(nil, []byte(tc.vals[2])))
			if string(elem) != tc.elem {
				t.Fatalf("element = %q, want %q", elem, tc.elem)
			}
			var got string
			n, err := f.Finish([]byte("k"), elem, func(_, v []byte) { got = string(v) })
			if err != nil || got != tc.answer || n != tc.values {
				t.Fatalf("Finish = %q, %d values, %v; want %q, %d", got, n, err, tc.answer, tc.values)
			}
			if f.Declared() != tc.combines || (f.Combiner() != nil) != tc.combines {
				t.Fatalf("Declared = %v, Combiner set = %v, want both %v", f.Declared(), f.Combiner() != nil, tc.combines)
			}
			// Partial is the same fold over a whole group, whatever Final says.
			raw := make([][]byte, len(tc.vals))
			for i, v := range tc.vals {
				raw[i] = []byte(v)
			}
			f.Partial([]byte("k"), raw, func(_, v []byte) { got = string(v) })
			if got != tc.elem {
				t.Fatalf("Partial = %q, want the element %q", got, tc.elem)
			}
		})
	}
}

// A job that wants elements as its output declares Elements(): the same
// monoid, but Finish no longer goes through Final.
func TestFoldElementsStripsFinal(t *testing.T) {
	f := (&Job{Reduce: joinVals, Monoid: meanOfBytes{}}).Fold()
	g := (&Job{Reduce: joinVals, Monoid: f.Elements()}).Fold()
	var got []byte
	if _, err := g.Finish([]byte("k"), []byte{15, 3}, func(_, v []byte) { got = v }); err != nil || !bytes.Equal(got, []byte{15, 3}) {
		t.Fatalf("Finish through Elements() = %v, %v; want the element itself", got, err)
	}
	if (&Job{Reduce: joinVals}).Fold().Elements() != nil {
		t.Fatal("an undeclared job has no monoid to hand on")
	}
}

// A value-list state that is not a whole number of frames — what a damaged
// spill file hands back — is an error naming job and key, before Reduce runs.
func TestFoldFinishRejectsMalformedState(t *testing.T) {
	reduced := false
	job := Job{Name: "lists", Reduce: func([]byte, [][]byte, Emit) { reduced = true }}
	f := job.Fold()
	whole := kv.AppendFramed(kv.AppendFramed(nil, []byte("first")), []byte("second"))
	for _, bad := range [][]byte{
		whole[:len(whole)-1],                   // last frame cut short
		append(bytes.Clone(whole), 0x80),       // unterminated length
		append(bytes.Clone(whole), 0xff, 0x7f), // length past the end
	} {
		_, err := f.Finish([]byte("user-7"), bad, func(_, _ []byte) { t.Error("emitted from a malformed state") })
		if err == nil || !strings.Contains(err.Error(), `"lists"`) || !strings.Contains(err.Error(), `"user-7"`) {
			t.Fatalf("state %q: err = %v, want one naming job and key", bad, err)
		}
	}
	if reduced {
		t.Fatal("Reduce ran over a malformed state")
	}
	if n, err := f.Finish([]byte("user-7"), whole, func(_, _ []byte) {}); err != nil || n != 2 || !reduced {
		t.Fatalf("whole state after the damaged ones: %d values, %v", n, err)
	}
}

// An emit may suspend its caller with another Finish on the same Fold
// interleaved; the outer call's values must survive the inner one.
func TestFoldFinishSurvivesInterleavedFinish(t *testing.T) {
	var f *Fold
	inner := kv.AppendFramed(kv.AppendFramed(nil, []byte("x")), []byte("y"))
	depth := 0
	var got []string
	job := Job{Reduce: func(key []byte, vals [][]byte, emit Emit) {
		emit(key, nil)
		// Still reading vals after the emit returned.
		got = append(got, string(bytes.Join(vals, []byte("+"))))
	}}
	f = job.Fold()
	outer := kv.AppendFramed(kv.AppendFramed(nil, []byte("a")), []byte("b"))
	emit := func(_, _ []byte) {
		if depth++; depth == 1 {
			if _, err := f.Finish([]byte("k2"), inner, func(_, _ []byte) {}); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := f.Finish([]byte("k1"), outer, emit); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "x+y" || got[1] != "a+b" {
		t.Fatalf("reduces saw %q, want [x+y a+b]", got)
	}
}
