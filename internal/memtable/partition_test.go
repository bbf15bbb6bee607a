package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"onepass/internal/hashlib"
)

// A partitioned-table program is a partition count (its first byte, mod
// maxProgParts, plus one) and then three bytes an operation: kind,
// partition, key. The kinds are the table program's fold (opSlot), opDelete,
// opDeleteRun, opReset and opRestart; the others do nothing.
const maxProgParts = 8

// partitionedProgram assembles a program of parts partitions from (kind,
// partition, key) triples.
func partitionedProgram(parts int, ops ...int) []byte {
	out := []byte{byte(parts - 1)}
	for _, o := range ops {
		out = append(out, byte(o))
	}
	return out
}

// foldRun is n folds of keys from..from+n-1, key k into partition k mod parts.
func foldRun(parts, from, n int) (ops []int) {
	for k := from; k < from+n; k++ {
		ops = append(ops, opSlot, k%parts, k)
	}
	return ops
}

// checkPartitionedProgram runs prog on one P-partition table and on P
// one-partition tables, each on an arena of its own, and fails on the first
// observable difference: partition p must visit (ElemsIn) the keys and
// elements table p visits (Elems), in the same order, and Len must be the
// sum of the tables'. It returns how many compactions the partitioned table
// went through.
func checkPartitionedProgram(t *testing.T, prog []byte) (compactions int) {
	t.Helper()
	if len(prog) == 0 {
		return 0
	}
	parts := 1 + int(prog[0])%maxProgParts
	h := hashlib.NewFamily(1).New()
	arena := NewArena(0)
	tb := NewPartitionedTable(h, arena, parts, 16)
	tables, arenas := make([]*Table, parts), make([]*Arena, parts)
	for p := range tables {
		arenas[p] = NewArena(0)
		tables[p] = NewTable(h, arenas[p], 16)
	}
	key := func(id byte) []byte { return []byte(fmt.Sprintf("key-%03d", id)) }
	remove := func(op, p int, k []byte) {
		if got, want := tb.DeleteIn(p, k), tables[p].Delete(k); got != want {
			t.Fatalf("op %d: DeleteIn(%d, %s) = %v, table %d says %v", op, p, k, got, p, want)
		}
	}

	for pc := 1; pc+2 < len(prog); pc += 3 {
		op, kind, p, k := pc/3, prog[pc]%opKinds, int(prog[pc+1])%parts, key(prog[pc+2])
		switch kind {
		case opSlot:
			n := tb.n
			e, inserted := tb.SlotIn(p, k)
			if tb.n < n {
				compactions++
			}
			te, tInserted := tables[p].Slot(k)
			if inserted != tInserted {
				t.Fatalf("op %d: SlotIn(%d, %s) inserted=%v, table %d %v", op, p, k, inserted, p, tInserted)
			}
			// The same growth on both sides: through Room half the time, a
			// plain append the other half.
			add := bytes.Repeat([]byte{prog[pc+2]}, pc%7)
			if pc%4 < 2 {
				tb.SetElem(e, append(tb.Room(e, len(add)), add...))
				tables[p].SetElem(te, append(tables[p].Room(te, len(add)), add...))
			} else {
				tb.SetElem(e, append(tb.Elem(e), add...))
				tables[p].SetElem(te, append(tables[p].Elem(te), add...))
			}
		case opDelete:
			remove(op, p, k)
		case opDeleteRun:
			for i := byte(0); i < 8; i++ {
				remove(op, p, key(prog[pc+2]+i))
			}
		case opReset:
			tb.Reset()
			arena.Reset()
			for q := range tables {
				tables[q].Reset()
				arenas[q].Reset()
			}
		case opRestart:
			tb.Restart()
			arena.Reset()
			for q := range tables {
				tables[q].Restart()
				arenas[q].Reset()
			}
		default:
			continue // kinds the partitioned program does not use
		}

		checkRegionsDisjoint(t, tb, op)
		type pair struct{ k, elem string }
		visits := func(walk func(func(k, elem []byte) bool)) (out []pair) {
			walk(func(k, elem []byte) bool { out = append(out, pair{string(k), string(elem)}); return true })
			return out
		}
		live := 0
		for q, x := range tables {
			got := visits(func(f func(k, elem []byte) bool) { tb.ElemsIn(q, f) })
			want := visits(x.Elems)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: partition %d visits\n %v\ntable %d visits\n %v", op, q, got, q, want)
			}
			live += x.Len()
		}
		if tb.Len() != live {
			t.Fatalf("op %d: Len = %d, the tables hold %d", op, tb.Len(), live)
		}
	}
	return compactions
}

// partitionedCorpus is the hand-written part of the corpus.
func partitionedCorpus() [][]byte {
	// Folds into every partition until each has grown its index twice, a
	// Reset (the combiner's flush) and a refill at the grown capacity, then
	// a Restart and a refill from the initial one.
	var cycle []int
	cycle = append(cycle, foldRun(5, 0, 150)...)
	cycle = append(cycle, opSlot, 2, 7) // a second fold of a live key
	cycle = append(cycle, opReset, 0, 0)
	cycle = append(cycle, foldRun(5, 40, 150)...)
	cycle = append(cycle, opRestart, 0, 0)
	cycle = append(cycle, foldRun(5, 100, 120)...)

	// 200 keys over three partitions fill the entry store through five
	// segment boundaries; deleting 136 of them, filling the six segments to
	// 256 entries and inserting once more compacts the shared store, which
	// moves live entries of every partition down and rewrites every
	// partition's index. Then 40 inserts overwrite the entries' old places,
	// so an index left pointing there visits other keys, and more folds
	// reach the moved entries.
	var compact []int
	compact = append(compact, foldRun(3, 0, 200)...)
	for k := 0; k < 136; k += 8 {
		for p := range 3 {
			compact = append(compact, opDeleteRun, p, k)
		}
	}
	compact = append(compact, foldRun(3, 200, 56)...)
	compact = append(compact, foldRun(3, 0, 40)...)
	compact = append(compact, foldRun(3, 136, 40)...)

	return [][]byte{
		partitionedProgram(5, cycle...),
		partitionedProgram(3, compact...),
		partitionedProgram(1, foldRun(1, 0, 40)...),
		partitionedProgram(8, opSlot, 3, 1, opDelete, 3, 1, opSlot, 4, 1, opSlot, 3, 1, opDelete, 4, 1),
	}
}

// Property: a P-partition table is P one-partition tables — slot order,
// elements and counts — through folds, deletes, compactions, Reset and
// Restart.
func TestPartitionedMatchesTables(t *testing.T) {
	for i, prog := range partitionedCorpus() {
		if n := checkPartitionedProgram(t, prog); i == 1 && n == 0 {
			t.Fatal("the compaction program compacted nothing")
		}
	}
	rng := rand.New(rand.NewSource(54))
	for round := 0; round < 200; round++ {
		prog := []byte{byte(rng.Intn(maxProgParts))}
		universe := 8 << rng.Intn(6)
		for range 50 + rng.Intn(400) {
			var kind byte
			switch r := rng.Intn(100); {
			case r < 60:
				kind = opSlot
			case r < 80:
				kind = opDelete
			case r < 95:
				kind = opDeleteRun
			case r < 98:
				kind = opReset
			default:
				kind = opRestart
			}
			prog = append(prog, kind, byte(rng.Intn(maxProgParts)), byte(rng.Intn(universe)))
		}
		checkPartitionedProgram(t, prog)
	}
}

func FuzzPartitionedMatchesTables(f *testing.F) {
	for _, prog := range partitionedCorpus() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		checkPartitionedProgram(t, prog)
	})
}
