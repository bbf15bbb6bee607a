package memtable

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"onepass/internal/hashlib"
)

// Operation kinds of a table program: two bytes an operation, kind then key.
const (
	opSlot = iota // insert if absent and append to the element
	opAdd
	opGet
	opDelete
	opSetVal
	opDeleteRun // delete eight consecutive keys: tombstones in bulk
	opReset
	opRestart
	opKinds
)

// tableProgram assembles a program from (kind, key) pairs.
func tableProgram(ops ...int) []byte {
	out := make([]byte, len(ops))
	for i, o := range ops {
		out[i] = byte(o)
	}
	return out
}

// insertRun is n inserts of keys from..from+n-1.
func insertRun(kind, from, n int) (ops []int) {
	for k := from; k < from+n; k++ {
		ops = append(ops, kind, k)
	}
	return ops
}

// checkTableProgram runs prog against Table and the former Table side by
// side and fails on the first observable difference: Len, any key's value,
// the slot order Elems visits, and the insertion order InOrder visits —
// checked against a model list, since the former table had no such order —
// with every element equal to the model's and no two of them, or of the
// keys, sharing arena bytes.
func checkTableProgram(t *testing.T, prog []byte) {
	t.Helper()
	h := hashlib.NewFamily(1).New()
	arena, refArena := NewArena(0), NewArena(0)
	tb, ref := NewTable(h, arena, 16), newRefTable(h, refArena, 16)
	elems := map[string][]byte{}
	var order []string // live keys by their latest insert
	forget := func(k string) {
		delete(elems, k)
		if i := slices.Index(order, k); i >= 0 {
			order = slices.Delete(order, i, i+1)
		}
	}
	key := func(id byte) []byte { return []byte(fmt.Sprintf("key-%03d", id)) }

	for pc := 0; pc+1 < len(prog); pc += 2 {
		kind, k := prog[pc]%opKinds, key(prog[pc+1])
		switch kind {
		case opSlot:
			e, inserted := tb.Slot(k)
			if refInserted := ref.Upsert(k, func(old uint64, _ bool) uint64 { return old }); inserted != refInserted {
				t.Fatalf("op %d: Slot(%s) inserted=%v, reference %v", pc/2, k, inserted, refInserted)
			}
			if inserted {
				order = append(order, string(k))
			}
			// Grow the element by a run whose length varies with the
			// program counter, through Room half the time and through a
			// plain append (which may leave the region) the other half.
			add := bytes.Repeat([]byte{prog[pc+1]}, pc%7)
			var s []byte
			if pc%4 < 2 {
				s = append(tb.Room(e, len(add)), add...)
			} else {
				s = append(tb.Elem(e), add...)
			}
			tb.SetElem(e, s)
			elems[string(k)] = append(elems[string(k)], add...)
		case opAdd:
			if got, want := tb.Add(k, uint64(pc)), ref.Add(k, uint64(pc)); got != want {
				t.Fatalf("op %d: Add(%s) = %d, reference %d", pc/2, k, got, want)
			}
			if !slices.Contains(order, string(k)) {
				order = append(order, string(k))
			}
		case opGet:
			// Every key is compared below.
		case opDelete:
			if got, want := tb.Delete(k), ref.Delete(k); got != want {
				t.Fatalf("op %d: Delete(%s) = %v, reference %v", pc/2, k, got, want)
			}
			forget(string(k))
		case opSetVal:
			e, found := tb.find(k)
			if found {
				tb.SetVal(e, uint64(pc))
			}
			if want := ref.SetValue(k, uint64(pc)); found != want {
				t.Fatalf("op %d: %s found=%v, reference %v", pc/2, k, found, want)
			}
		case opDeleteRun:
			for i := byte(0); i < 8; i++ {
				k := key(prog[pc+1] + i)
				if got, want := tb.Delete(k), ref.Delete(k); got != want {
					t.Fatalf("op %d: Delete(%s) = %v, reference %v", pc/2, k, got, want)
				}
				forget(string(k))
			}
		case opReset:
			tb.Reset()
			ref.Reset()
			arena.Reset()
			refArena.Reset()
			elems, order = map[string][]byte{}, nil
		case opRestart:
			tb.Restart()
			ref.Restart()
			arena.Reset()
			refArena.Reset()
			elems, order = map[string][]byte{}, nil
		}

		checkRegionsDisjoint(t, tb, pc/2)
		if tb.Len() != ref.Len() {
			t.Fatalf("op %d: Len = %d, reference %d", pc/2, tb.Len(), ref.Len())
		}
		got, ok := get(tb, k)
		if want, refOK := ref.Get(k); got != want || ok != refOK {
			t.Fatalf("op %d: Get(%s) = %d,%v, reference %d,%v", pc/2, k, got, ok, want, refOK)
		}
		type kv struct {
			k string
			v uint64
		}
		var slots, refSlots []kv
		for _, k := range slotKeys(tb) {
			v, _ := get(tb, []byte(k))
			slots = append(slots, kv{k, v})
		}
		ref.Iterate(func(k []byte, v uint64) bool { refSlots = append(refSlots, kv{string(k), v}); return true })
		if !slices.Equal(slots, refSlots) {
			t.Fatalf("op %d: slot order differs from the reference:\n got %v\nwant %v", pc/2, slots, refSlots)
		}
		i := 0
		tb.Elems(func(k, elem []byte) bool {
			if string(k) != slots[i].k || !bytes.Equal(elem, elems[string(k)]) {
				t.Fatalf("op %d: Elems visit %d = %s %q, want %s %q", pc/2, i, k, elem, slots[i].k, elems[string(k)])
			}
			if got, ok := tb.GetElem(k); !ok || !bytes.Equal(got, elem) {
				t.Fatalf("op %d: GetElem(%s) = %q,%v, Elems gave %q", pc/2, k, got, ok, elem)
			}
			i++
			return true
		})
		if i != len(slots) {
			t.Fatalf("op %d: Elems visited %d keys, then %d", pc/2, i, len(slots))
		}
		var inserted []string
		tb.InOrder(func(k, elem []byte, v uint64) bool {
			if !bytes.Equal(elem, elems[string(k)]) {
				t.Fatalf("op %d: InOrder element of %s = %q, want %q", pc/2, k, elem, elems[string(k)])
			}
			if want, _ := ref.Get(k); v != want {
				t.Fatalf("op %d: InOrder value of %s = %d, want %d", pc/2, k, v, want)
			}
			inserted = append(inserted, string(k))
			return true
		})
		if !slices.Equal(inserted, order) {
			t.Fatalf("op %d: insertion order differs from the model:\n got %v\nwant %v", pc/2, inserted, order)
		}
	}
}

// checkRegionsDisjoint fails if any two live keys or elements share a byte of
// the arena: every fold is handed its element clipped to its region, so
// disjoint regions are what keeps one key's fold out of another's state.
func checkRegionsDisjoint(t *testing.T, tb *Table, op int) {
	t.Helper()
	type span struct{ from, to ref }
	var spans []span
	for i := range tb.n {
		e := tb.at(i)
		if e.klen == deadKey {
			continue
		}
		spans = append(spans, span{e.key, e.key + ref(e.klen)})
		if e.ecap > 0 { // an element with no region has no place either
			spans = append(spans, span{e.elem, e.elem + ref(e.ecap)})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.from, b.from) })
	for i := 1; i < len(spans); i++ {
		if spans[i].from < spans[i-1].to {
			t.Fatalf("op %d: arena regions [%#x,%#x) and [%#x,%#x) overlap", op, spans[i-1].from, spans[i-1].to, spans[i].from, spans[i].to)
		}
	}
}

// tableCorpus is the hand-written part of the corpus: the shapes where the
// two layouts could part ways.
func tableCorpus() [][]byte {
	var growWithTombs []int
	growWithTombs = append(growWithTombs, insertRun(opSlot, 0, 10)...) // 10 of 16 slots
	growWithTombs = append(growWithTombs, opDeleteRun, 2)              // 8 tombstones
	growWithTombs = append(growWithTombs, insertRun(opAdd, 40, 30)...) // reuse some, then grow twice

	var churn []int // insert/delete cycles that never grow the index: entries compact
	for round := 0; round < 12; round++ {
		churn = append(churn, insertRun(opSlot, 8*round, 8)...)
		churn = append(churn, opDeleteRun, 8*round)
	}
	churn = append(churn, insertRun(opSlot, 200, 8)...)

	var restart []int
	restart = append(restart, insertRun(opSlot, 0, 100)...)
	restart = append(restart, opRestart, 0)
	restart = append(restart, insertRun(opSlot, 50, 40)...)
	restart = append(restart, opReset, 0)
	restart = append(restart, insertRun(opAdd, 0, 40)...)

	// Inserts through five segment boundaries (8, 16, 32, 64 and 128
	// entries), deletes 136 of the 200 keys, fills the six segments to 256
	// entries, and inserts once more: the full table compacts, moving live
	// entries down across segments. Then a restart, and a refill.
	var segments []int
	segments = append(segments, insertRun(opSlot, 0, 200)...)
	for k := 0; k < 136; k += 8 {
		segments = append(segments, opDeleteRun, k)
	}
	segments = append(segments, insertRun(opAdd, 200, 56)...)
	segments = append(segments, insertRun(opSlot, 0, 8)...)
	segments = append(segments, opRestart, 0)
	segments = append(segments, insertRun(opSlot, 0, 200)...)

	return [][]byte{
		tableProgram(segments...),
		tableProgram(opSlot, 1, opDelete, 1, opSlot, 1, opSlot, 2, opDelete, 2, opAdd, 2, opSetVal, 1),
		tableProgram(growWithTombs...),
		tableProgram(churn...),
		tableProgram(restart...),
		tableProgram(append(insertRun(opSlot, 0, 6), insertRun(opSlot, 0, 6)...)...), // elements regrow
	}
}

// Property: under random operation sequences Table is indistinguishable from
// the former one-slot-per-key layout, slot order included.
func TestTableMatchesReference(t *testing.T) {
	for _, prog := range tableCorpus() {
		checkTableProgram(t, prog)
	}
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 200; round++ {
		// Weight the kinds: mostly inserts and deletes over a key universe
		// that shrinks and widens, a rare reset.
		prog := make([]byte, 2*(50+rng.Intn(400)))
		universe := 8 << rng.Intn(6)
		for pc := 0; pc < len(prog); pc += 2 {
			switch r := rng.Intn(100); {
			case r < 45:
				prog[pc] = opSlot
			case r < 60:
				prog[pc] = opAdd
			case r < 80:
				prog[pc] = opDelete
			case r < 85:
				prog[pc] = opDeleteRun
			case r < 93:
				prog[pc] = opSetVal
			case r < 97:
				prog[pc] = opGet
			case r < 99:
				prog[pc] = opReset
			default:
				prog[pc] = opRestart
			}
			prog[pc+1] = byte(rng.Intn(universe))
		}
		checkTableProgram(t, prog)
	}
}

func FuzzTableMatchesReference(f *testing.F) {
	for _, prog := range tableCorpus() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		checkTableProgram(t, prog)
	})
}
