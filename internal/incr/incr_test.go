package incr

import (
	"bytes"
	"testing"

	"onepass/internal/kv"
)

// Keys returns the affected keys in the order the state lays them out: by
// merge partition, ascending within each — so ascending under one
// partition. Each key is listed once.
func (a *Affected) Keys() [][]byte { return a.keys }

func decodeInput(t *testing.T, buf []byte) (keys []string, vals [][]byte) {
	t.Helper()
	for len(buf) > 0 {
		k, v, n := kv.DecodePair(buf)
		if n == 0 {
			t.Fatalf("%d undecoded bytes in merge input", len(buf))
		}
		buf = buf[n:]
		keys = append(keys, string(k))
		vals = append(vals, append([]byte(nil), v...))
	}
	return keys, vals
}

func TestStateMergeInputDeterministic(t *testing.T) {
	build := func() *State {
		s := New("count")
		// Insertion order deliberately scrambled: maps and block order must
		// not leak into the encoding.
		s.ReplaceBlock(2, map[string][]byte{"b": []byte("5"), "a": []byte("1")}, nil)
		s.ReplaceBlock(0, map[string][]byte{"a": []byte("3")}, nil)
		s.ReplaceBlock(1, map[string][]byte{"c": []byte("2")}, nil)
		return s
	}
	in1, err := build().MergeInput(nil)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := build().MergeInput(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in1, in2) {
		t.Fatal("merge input not deterministic")
	}
	keys, vals := decodeInput(t, in1)
	wantKeys := []string{"a", "a", "b", "c"}
	if len(keys) != len(wantKeys) {
		t.Fatalf("got keys %v, want %v", keys, wantKeys)
	}
	for i := range wantKeys {
		if keys[i] != wantKeys[i] {
			t.Fatalf("got keys %v, want %v", keys, wantKeys)
		}
	}
	// "a" appears in blocks 0 and 2 — partials must come out in block order.
	b0, p0, err := DecodePartial(vals[0])
	if err != nil {
		t.Fatal(err)
	}
	b1, p1, err := DecodePartial(vals[1])
	if err != nil {
		t.Fatal(err)
	}
	if b0 != 0 || string(p0) != "3" || b1 != 2 || string(p1) != "1" {
		t.Fatalf("partials for a: (%d,%q) (%d,%q)", b0, p0, b1, p1)
	}
}

func TestStateAffectedAndFinals(t *testing.T) {
	s := New("count")
	s.ReplaceBlock(0, map[string][]byte{"a": []byte("3"), "b": []byte("1")}, nil)
	s.ReplaceBlock(1, map[string][]byte{"b": []byte("5")}, nil)
	// Finals arrive as the merge job's part files, in whatever order the
	// reducers wrote them.
	finals := [][]byte{kv.AppendPair(nil, []byte("b"), []byte("6")), kv.AppendPair(nil, []byte("a"), []byte("3"))}
	if err := s.SetFinals(finals); err != nil {
		t.Fatal(err)
	}

	// Replacing block 1 with a block that drops b and introduces c affects
	// exactly {b, c}; a stays served from its cached final.
	affected := new(Affected)
	s.ReplaceBlock(1, map[string][]byte{"c": []byte("2")}, affected)
	if got := affected.Keys(); len(got) != 2 || string(got[0]) != "b" || string(got[1]) != "c" {
		t.Fatalf("affected = %q, want [b c]", got)
	}
	in, err := s.MergeInput(affected)
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := decodeInput(t, in)
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
	if vals[0][0] != MarkFinal || string(vals[0][1:]) != "3" {
		t.Fatalf("a not served from final: %q", vals[0])
	}
	if vals[1][0] != MarkPartial || vals[2][0] != MarkPartial {
		t.Fatalf("b/c not partials: %q %q", vals[1], vals[2])
	}

	// Emptying a block removes it and affects its keys.
	affected = new(Affected)
	s.ReplaceBlock(1, nil, affected)
	if got := affected.Keys(); len(got) != 1 || string(got[0]) != "c" {
		t.Fatalf("affected = %q, want [c]", got)
	}
	in, err = s.MergeInput(nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, vals = decodeInput(t, in)
	if s.Keys() != 2 || len(keys) != 2 || vals[0][1] != 0 || vals[1][1] != 0 {
		t.Fatalf("keys=%d, merge input %q %q after removal, want a and b of block 0", s.Keys(), keys, vals)
	}
}

func TestStateMissingFinal(t *testing.T) {
	s := New("count")
	s.ReplaceBlock(0, map[string][]byte{"a": []byte("3")}, nil)
	if _, err := s.MergeInput(new(Affected)); err == nil {
		t.Fatal("unaffected key with no cached final must error")
	}
}

func TestStateCheckKey(t *testing.T) {
	s := New("monoid:workloads.CountMonoid")
	if err := s.CheckKey("monoid:workloads.CountMonoid"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckKey("monoid:workloads.PostingsMonoid"); err == nil {
		t.Fatal("mismatched monoid key accepted")
	}
}

func TestDecodePartialErrors(t *testing.T) {
	if _, _, err := DecodePartial([]byte{MarkFinal, '1'}); err == nil {
		t.Fatal("final marker accepted as partial")
	}
	if _, _, err := DecodePartial(nil); err == nil {
		t.Fatal("empty value accepted as partial")
	}
}
