// Streaming: the paper's opening pitch, end to end. A click stream arrives
// into the system over one virtual minute — there is no separate "load,
// then query" phase. The sort-merge baseline cannot answer until well after
// the stream ends (its merge starts when the data stops); the hash engine's
// per-key states are already complete when the last block lands, and with a
// threshold query it answers *while the stream is still arriving*.
package main

import (
	"fmt"
	"log"

	"onepass"
)

func main() {
	const (
		inputSize   = 16 << 20
		arrivalSecs = 60.0
	)
	rate := float64(inputSize) / arrivalSecs

	fmt.Printf("Per-user click counting over a stream arriving for %.0f s (%.1f MB/s)\n\n",
		arrivalSecs, rate/(1<<20))

	run := func(eng onepass.Engine, threshold uint64) *onepass.Result {
		cfg := onepass.DefaultConfig()
		cfg.Engine = eng
		cfg.BlockSize = 1 << 20
		cfg.RetainOutput = true
		w := onepass.PerUserCount(onepass.DefaultClickConfig())
		job := w.Job
		if threshold > 0 {
			job.EmitWhen = func(key, state []byte) bool {
				return countState(state) >= threshold
			}
		}
		res, err := onepass.Run(cfg, onepass.Dataset{
			Path: "input/clicks", Size: inputSize, Gen: w.Gen, ArrivalRate: rate,
		}, job)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("%-18s %16s %18s\n", "engine", "complete answer", "after last byte")
	for _, eng := range []onepass.Engine{onepass.Hadoop, onepass.MapReduceOnline, onepass.HashIncremental} {
		res := run(eng, 0)
		fmt.Printf("%-18s %15.1fs %+17.1fs\n", eng,
			res.Makespan.Seconds(), res.Makespan.Seconds()-arrivalSecs)
	}

	// With a threshold query, the hash engine doesn't even wait for the
	// stream to finish.
	res := run(onepass.HashIncremental, 200)
	fmt.Printf("\nThreshold query (count >= 200) on hash-incremental:\n")
	fmt.Printf("  first answer at %.1f s — %.0f%% of the stream still to come\n",
		res.FirstOutputAt.Seconds(), 100*(1-res.FirstOutputAt.Seconds()/arrivalSecs))
}

// countState reads a CountMonoid state: the count in ASCII decimal.
func countState(state []byte) uint64 {
	var n uint64
	for _, c := range state {
		n = n*10 + uint64(c-'0')
	}
	return n
}
