package textfmt

import (
	"math/big"
	"strings"
	"testing"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"4096", 4096},
		{"512KB", 512 << 10},
		{"64MB", 64 << 20},
		{"1GB", 1 << 30},
		{"2GB", 2 << 30},
		{" 16MB", 16 << 20},
		{"7 KB", 7 << 10}, // inner space trimmed after suffix strip
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Fatalf("ParseSize(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseSizeMalformed(t *testing.T) {
	for _, in := range []string{"", "MB", "12TB", "1.5GB", "abc", "GB64", "64mb"} {
		if n, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) = %d, want error", in, n)
		}
	}
}

func TestParseSizeRejectsNonPositive(t *testing.T) {
	for _, in := range []string{"0", "0MB", "-1", "-64MB", "-999GB"} {
		if n, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) = %d, want error (non-positive size)", in, n)
		}
	}
}

func TestParseSizeRejectsOverflow(t *testing.T) {
	// 99999999999 * 2^30 wraps int64; the old code returned a large negative
	// size here.
	for _, in := range []string{"99999999999GB", "9223372036854775807MB", "10000000000000000KB"} {
		if n, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) = %d, want overflow error", in, n)
		}
	}
	// The largest representable sizes still parse.
	if n, err := ParseSize("8589934591GB"); err != nil || n != (int64(8589934591)<<30) {
		t.Errorf("ParseSize(8589934591GB) = %d, %v; want max in-range value", n, err)
	}
	if n, err := ParseSize("9223372036854775807"); err != nil || n != int64(9223372036854775807) {
		t.Errorf("ParseSize(max int64) = %d, %v", n, err)
	}
}

// FuzzParseSize: ParseSize never panics, and any size it accepts is positive
// and equals its digits times its suffix's multiplier in exact arithmetic —
// no wraparound.
func FuzzParseSize(f *testing.F) {
	for _, s := range []string{"4096", "512KB", "64MB", "1GB", " 16MB", "7 KB", "+8KB", "0", "-64MB", "1.5GB",
		"99999999999GB", "8589934591GB", "8589934592GB", "9223372036854775807", "9223372036854775808"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseSize(s)
		if err != nil {
			return
		}
		if n <= 0 {
			t.Fatalf("ParseSize(%q) = %d, not positive", s, n)
		}
		digits, mult := s, int64(1)
		for _, sfx := range []struct {
			name string
			mult int64
		}{{"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}} {
			if strings.HasSuffix(s, sfx.name) {
				digits, mult = strings.TrimSuffix(s, sfx.name), sfx.mult
				break
			}
		}
		want, ok := new(big.Int).SetString(strings.TrimSpace(digits), 10)
		if !ok {
			t.Fatalf("ParseSize(%q) = %d, but %q is not a decimal number", s, n, digits)
		}
		if want.Mul(want, big.NewInt(mult)); !want.IsInt64() || want.Int64() != n {
			t.Fatalf("ParseSize(%q) = %d, want %v", s, n, want)
		}
	})
}
