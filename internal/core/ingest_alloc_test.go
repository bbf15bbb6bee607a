package core

import (
	"fmt"
	"testing"

	"onepass/internal/kv"
	"onepass/internal/sim"
)

// ingest runs once per arriving chunk: its pooled decode+fold closure is
// built once per task and re-aimed at each chunk, so folding a chunk of
// known keys allocates nothing.
func TestIngestAllocatesNothingPerChunk(t *testing.T) {
	env, rc := newTestReduceCtx(t, 1<<20, 4)
	h := newHashReducer(rc, Incremental)
	var chunk []byte
	for i := 0; i < 64; i++ {
		chunk = kv.AppendPair(chunk, []byte(fmt.Sprintf("user-%04d", i)), []byte("1"))
	}
	env.Go("t", func(p *sim.Proc) {
		h.ingest(p, chunk) // the keys' first fold makes their states
		if avg := testing.AllocsPerRun(100, func() { h.ingest(p, chunk) }); avg != 0 {
			t.Errorf("ingest allocates %.1f/chunk at steady state, budget 0", avg)
		}
	})
	env.Run()
}
