package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"onepass/internal/textfmt"
)

// appendURL writes the click-log URL encoding for a drawn URL id — the one
// place the base generator and the delta rewriter must agree on it.
func appendURL(dst []byte, id uint64) []byte {
	dst = append(dst, "/en/page/"...)
	return strconv.AppendUint(dst, id, 10)
}

// Delta describes a seeded, replayable evolution of a click-log file —
// i2MapReduce's delta-input model. A delta selects a deterministic subset
// of the base file's blocks as dirty and rewrites them record by record
// (each record independently deleted, updated in place, or kept), then
// appends fresh blocks of new clicks past the end of the base file. Every
// decision derives from (Seed, block), so a delta can be re-materialized
// block by block in any order and always yields identical bytes — the same
// property ClickConfig.Block gives base data, extended to its evolution.
type Delta struct {
	// Seed drives every dirty-block coin, per-record mutation draw, and
	// appended-block generator, independently of the base Clicks.Seed.
	Seed uint64
	// DirtyFrac is the expected fraction of base blocks rewritten. When
	// positive, at least one block is always dirty (a delta that changes
	// nothing is not a delta).
	DirtyFrac float64
	// UpdateFrac and DeleteFrac are per-record probabilities within a dirty
	// block: a deleted record is dropped, an updated record keeps its
	// timestamp but redraws its user and URL from the base distributions.
	// Their sum must not exceed 1; the remainder of records pass unchanged.
	UpdateFrac float64
	DeleteFrac float64
	// AppendFrac is the number of appended blocks as a fraction of the base
	// block count. When positive, at least one block is appended.
	AppendFrac float64
	// Clicks must be the exact generator config of the base file: dirty
	// blocks are re-derived from it before mutation, and appended blocks
	// extend its timeline (block index beyond the base advances BaseTime).
	Clicks ClickConfig
}

// DefaultDelta is the standard mixed delta at a given overall size: frac of
// the base blocks dirty (half their touched records updated, a quarter
// deleted) and frac of the base size appended as new clicks.
func DefaultDelta(clicks ClickConfig, seed uint64, frac float64) Delta {
	return Delta{
		Seed:       seed,
		DirtyFrac:  frac,
		UpdateFrac: 0.5,
		DeleteFrac: 0.25,
		AppendFrac: frac,
		Clicks:     clicks,
	}
}

// Salts separate the three random streams a Delta consumes so that, e.g.,
// the dirty-block coin for block i never correlates with block i's
// per-record mutation draws.
const (
	deltaDirtySalt  = 0x8F1BBCDCBFA53E0B
	deltaMutateSalt = 0x2545F4914F6CDD1D
	deltaAppendSalt = 0xD6E8FEB86659FD93
)

// Validate rejects fraction parameters outside their documented ranges.
func (d Delta) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DirtyFrac", d.DirtyFrac},
		{"UpdateFrac", d.UpdateFrac},
		{"DeleteFrac", d.DeleteFrac},
		{"AppendFrac", d.AppendFrac},
	} {
		if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
			return fmt.Errorf("gen: delta %s %v outside [0,1]", f.name, f.v)
		}
	}
	if d.UpdateFrac+d.DeleteFrac > 1 {
		return fmt.Errorf("gen: delta UpdateFrac+DeleteFrac %v exceeds 1",
			d.UpdateFrac+d.DeleteFrac)
	}
	if d.Clicks.Users <= 0 || d.Clicks.URLs <= 0 {
		return fmt.Errorf("gen: delta Clicks needs positive Users/URLs (got %d/%d)",
			d.Clicks.Users, d.Clicks.URLs)
	}
	return nil
}

// DirtyBlocks returns the sorted base-block indices this delta rewrites:
// an independent seeded coin per block, forced to at least one block when
// DirtyFrac is positive so no delta silently degenerates to append-only.
func (d Delta) DirtyBlocks(nBase int) []int {
	if d.DirtyFrac <= 0 || nBase <= 0 {
		return nil
	}
	var dirty []int
	for b := 0; b < nBase; b++ {
		if blockRand(d.Seed^deltaDirtySalt, b).Float64() < d.DirtyFrac {
			dirty = append(dirty, b)
		}
	}
	if len(dirty) == 0 {
		dirty = append(dirty, int(d.Seed%uint64(nBase)))
	}
	return dirty
}

// AppendCount returns the number of appended blocks: ceil(AppendFrac·nBase),
// at least one when AppendFrac is positive.
func (d Delta) AppendCount(nBase int) int {
	if d.AppendFrac <= 0 || nBase <= 0 {
		return 0
	}
	n := int(math.Ceil(d.AppendFrac * float64(nBase)))
	if n < 1 {
		n = 1
	}
	return n
}

// MutatedBlock re-derives base block b (at its registered size) and rewrites
// it record by record: per record, one seeded draw decides delete / update /
// keep. Updates preserve the record's timestamp and encoding but redraw the
// user and URL from the base config's Zipf distributions. The result is
// deterministic per (Seed, block) and never splits a record.
func (d Delta) MutatedBlock(b int, size int64) []byte {
	base := d.Clicks.Block(b, size)
	rng := blockRand(d.Seed^deltaMutateSalt, b)
	users := rand.NewZipf(rng, d.Clicks.UserSkew, 1, uint64(d.Clicks.Users-1))
	urls := rand.NewZipf(rng, d.Clicks.URLSkew, 1, uint64(d.Clicks.URLs-1))
	out := make([]byte, 0, len(base))
	var urlBuf []byte
	rewrite := func(c textfmt.Click) textfmt.Click {
		urlBuf = appendURL(urlBuf[:0], urls.Uint64())
		return textfmt.Click{Time: c.Time, User: uint32(users.Uint64()), URL: urlBuf}
	}
	if d.Clicks.Binary {
		for rest := base; len(rest) > 0; {
			c, n := textfmt.ParseClickBinary(rest)
			if n == 0 {
				out = append(out, rest...) // trailing garbage: keep verbatim
				break
			}
			rec := rest[:n]
			rest = rest[n:]
			switch p := rng.Float64(); {
			case p < d.DeleteFrac:
			case p < d.DeleteFrac+d.UpdateFrac:
				out = textfmt.AppendClickBinary(out, rewrite(c))
			default:
				out = append(out, rec...)
			}
		}
		return out
	}
	for rest := base; len(rest) > 0; {
		line, next, ok := textfmt.NextLine(rest)
		if !ok {
			out = append(out, rest...) // unterminated tail: keep verbatim
			break
		}
		rec := rest[:len(line)+1]
		rest = next
		c, err := textfmt.ParseClickText(line)
		if err != nil {
			out = append(out, rec...)
			continue
		}
		switch p := rng.Float64(); {
		case p < d.DeleteFrac:
		case p < d.DeleteFrac+d.UpdateFrac:
			out = textfmt.AppendClickText(out, rewrite(c))
		default:
			out = append(out, rec...)
		}
	}
	return out
}

// AppendedBlock generates appended block i (zero-based past the base): new
// clicks from a Seed-derived generator at block index nBase+i, so appended
// timestamps continue past the base timeline exactly as if the log had kept
// growing.
func (d Delta) AppendedBlock(i, nBase int, size int64) []byte {
	cfg := d.Clicks
	cfg.Seed = d.Clicks.Seed ^ (d.Seed + deltaAppendSalt)
	return cfg.Block(nBase+i, size)
}

// Apply returns the changed file's generator: the base generator with dirty
// blocks mutated and AppendCount(nBase) appended blocks past the base.
// Callers size the new file as nBase+AppendCount blocks; per-block sizes are
// the caller's (the DFS layout's) concern, exactly as with ClickConfig.Block.
func (d Delta) Apply(nBase int) func(block int, size int64) []byte {
	dirty := make(map[int]bool, nBase)
	for _, b := range d.DirtyBlocks(nBase) {
		dirty[b] = true
	}
	return func(block int, size int64) []byte {
		switch {
		case block >= nBase:
			return d.AppendedBlock(block-nBase, nBase, size)
		case dirty[block]:
			return d.MutatedBlock(block, size)
		default:
			return d.Clicks.Block(block, size)
		}
	}
}
