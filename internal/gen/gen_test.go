package gen

import (
	"bytes"
	"testing"

	"onepass/internal/textfmt"
)

func TestClickBlockDeterministic(t *testing.T) {
	cfg := DefaultClickConfig()
	a := cfg.Block(3, 10000)
	b := cfg.Block(3, 10000)
	if !bytes.Equal(a, b) {
		t.Fatal("same (seed, block) must generate identical bytes")
	}
	c := cfg.Block(4, 10000)
	if bytes.Equal(a, c) {
		t.Fatal("different blocks must differ")
	}
	cfg2 := cfg
	cfg2.Seed = 999
	if bytes.Equal(a, cfg2.Block(3, 10000)) {
		t.Fatal("different seeds must differ")
	}
}

func TestClickBlockRespectsSizeAndParses(t *testing.T) {
	cfg := DefaultClickConfig()
	const size = 8 << 10
	block := cfg.Block(0, size)
	if int64(len(block)) > size {
		t.Fatalf("block = %d bytes, cap %d", len(block), size)
	}
	if len(block) < size/2 {
		t.Fatalf("block suspiciously small: %d", len(block))
	}
	n := 0
	rest := block
	for {
		line, r, ok := textfmt.NextLine(rest)
		if !ok {
			break
		}
		rest = r
		c, err := textfmt.ParseClickText(line)
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if int(c.User) >= cfg.Users {
			t.Fatalf("user %d out of range", c.User)
		}
		if !bytes.HasPrefix(c.URL, []byte("/en/page/")) {
			t.Fatalf("url = %q", c.URL)
		}
		n++
	}
	if len(rest) != 0 {
		t.Fatalf("trailing partial record of %d bytes", len(rest))
	}
	if n < 50 {
		t.Fatalf("only %d records in 8KB", n)
	}
}

func TestClickBlockBinaryParses(t *testing.T) {
	cfg := DefaultClickConfig()
	cfg.Binary = true
	block := cfg.Block(0, 8<<10)
	n := 0
	for off := 0; off < len(block); {
		c, used := textfmt.ParseClickBinary(block[off:])
		if used == 0 {
			t.Fatalf("partial binary record at offset %d", off)
		}
		if int(c.User) >= cfg.Users {
			t.Fatalf("user out of range")
		}
		off += used
		n++
	}
	if n < 50 {
		t.Fatalf("only %d binary records", n)
	}
}

func TestClickSkewProducesHotKeys(t *testing.T) {
	cfg := DefaultClickConfig()
	counts := map[uint32]int{}
	total := 0
	for b := 0; b < 4; b++ {
		rest := cfg.Block(b, 64<<10)
		for {
			line, r, ok := textfmt.NextLine(rest)
			if !ok {
				break
			}
			rest = r
			c, _ := textfmt.ParseClickText(line)
			counts[c.User]++
			total++
		}
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	// Zipf with s=1.1: the hottest user should hold a visible share.
	if float64(max)/float64(total) < 0.02 {
		t.Fatalf("hottest user share = %.4f — skew missing", float64(max)/float64(total))
	}
	if len(counts) < 100 {
		t.Fatalf("only %d distinct users — too concentrated", len(counts))
	}
}

func TestDocBlockParsesAndDeterministic(t *testing.T) {
	cfg := DefaultDocConfig()
	a := cfg.Block(1, 32<<10)
	if !bytes.Equal(a, cfg.Block(1, 32<<10)) {
		t.Fatal("doc generation must be deterministic")
	}
	docs := 0
	words := 0
	rest := a
	for {
		line, r, ok := textfmt.NextLine(rest)
		if !ok {
			break
		}
		rest = r
		d, err := textfmt.ParseDocTextInto(line, nil)
		if err != nil {
			t.Fatalf("doc %d: %v", docs, err)
		}
		words += len(d.Words)
		docs++
	}
	if len(rest) != 0 {
		t.Fatal("trailing partial document")
	}
	if docs < 3 {
		t.Fatalf("docs = %d", docs)
	}
	if words/docs < cfg.WordsPerDoc/3 {
		t.Fatalf("mean words/doc = %d, config %d", words/docs, cfg.WordsPerDoc)
	}
}

func TestDocBlockTinySizeClipsAtTokenBoundary(t *testing.T) {
	cfg := DefaultDocConfig()
	block := cfg.Block(0, 64) // smaller than one document
	if len(block) == 0 {
		t.Fatal("tiny block should still hold a clipped document")
	}
	line, _, ok := textfmt.NextLine(block)
	if !ok {
		t.Fatal("clipped document must end in newline")
	}
	if _, err := textfmt.ParseDocTextInto(line, nil); err != nil {
		t.Fatalf("clipped document must parse: %v", err)
	}
}

func TestDistinctURLsPerBlockBounded(t *testing.T) {
	// Page-frequency's tiny intermediate/input ratio (0.4%) relies on few
	// distinct URLs per block relative to records.
	cfg := DefaultClickConfig()
	urls := map[string]bool{}
	recs := 0
	rest := cfg.Block(0, 256<<10)
	for {
		line, r, ok := textfmt.NextLine(rest)
		if !ok {
			break
		}
		rest = r
		c, _ := textfmt.ParseClickText(line)
		urls[string(c.URL)] = true
		recs++
	}
	if float64(len(urls)) > 0.5*float64(recs) {
		t.Fatalf("distinct urls %d vs records %d — combiner would be useless", len(urls), recs)
	}
}
