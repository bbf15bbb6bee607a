package kv

import (
	"bytes"
	"testing"
)

// FuzzFrames feeds arbitrary bytes to NextFrame, the value-list decoder every
// undeclared job's per-key state goes through. They are rejected, or they are
// exactly what AppendFramed makes of the frames yielded.
func FuzzFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var again []byte
		rest, ok := data, true
		for ok && len(rest) > 0 {
			var b []byte
			if b, rest, ok = NextFrame(rest); ok {
				again = AppendFramed(again, b)
			}
		}
		if ok && !bytes.Equal(again, data) {
			t.Fatalf("accepted %q, which re-encodes to %q", data, again)
		}
		if !ok && !bytes.HasPrefix(data, again) {
			t.Fatalf("rejected %q after yielding frames that encode to %q, not a prefix of it", data, again)
		}
	})
}
