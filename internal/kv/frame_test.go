package kv

import (
	"bytes"
	"testing"
)

// FuzzFrames feeds arbitrary bytes to the value-list decoder every undeclared
// job's per-key state goes through. They are rejected, or they are exactly
// what AppendFramed makes of the frames yielded; either way CountFrames sees
// the frames Frames yielded.
func FuzzFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var again []byte
		n := 0
		ok := Frames(data, func(b []byte) {
			again = AppendFramed(again, b)
			n++
		})
		if got := CountFrames(data); got != n {
			t.Fatalf("CountFrames = %d, Frames yielded %d", got, n)
		}
		if ok && !bytes.Equal(again, data) {
			t.Fatalf("accepted %q, which re-encodes to %q", data, again)
		}
		if !ok && !bytes.HasPrefix(data, again) {
			t.Fatalf("rejected %q after yielding frames that encode to %q, not a prefix of it", data, again)
		}
	})
}
