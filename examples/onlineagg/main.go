// Onlineagg: incremental one-pass analytics in action — the paper's §IV
// motivating query: "return all groups where the count of items exceeds a
// threshold", with each group emitted the moment it crosses the line, long
// before the job finishes. Also shows the hot-key engine's early
// approximate answers under memory pressure.
package main

import (
	"fmt"
	"log"

	"onepass"
)

func main() {
	const threshold = 500

	// Part 1: threshold query with streaming emission (EmitWhen).
	cfg := onepass.DefaultConfig()
	cfg.Engine = onepass.HashIncremental
	cfg.BlockSize = 1 << 20
	cfg.RetainOutput = true

	w := onepass.PerUserCount(onepass.DefaultClickConfig())
	job := w.Job
	job.EmitWhen = func(key, state []byte) bool {
		return countState(state) >= threshold
	}

	res, err := onepass.Run(cfg, onepass.Dataset{
		Path: "input/clicks", Size: 16 << 20, Gen: w.Gen,
	}, job)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Threshold query: users with >= %d clicks\n", threshold)
	fmt.Printf("  job finished at           %7.2fs (virtual)\n", res.Makespan.Seconds())
	fmt.Printf("  first threshold answer at %7.2fs — %.0f%% of the way in\n",
		res.FirstOutputAt.Seconds(),
		100*res.FirstOutputAt.Seconds()/res.Makespan.Seconds())
	heavy := 0
	for _, count := range res.Output {
		if parseUint(count) >= threshold {
			heavy++
		}
	}
	fmt.Printf("  heavy hitters found: %d of %d users\n\n", heavy, len(res.Output))

	// Part 2: hot-key engine under memory pressure — approximate answers
	// for the important keys the instant all input has arrived, before the
	// exact cold-key completion pass.
	cfg2 := onepass.DefaultConfig()
	cfg2.Engine = onepass.HashHotKey
	cfg2.BlockSize = 1 << 20
	cfg2.MemoryPerTask = 16 << 10 // far below the full key-state volume
	cfg2.HotKeyCounters = 1024
	cfg2.ApproximateEarly = true
	cfg2.RetainOutput = true

	res2, err := onepass.RunWorkload(cfg2, onepass.PerUserCount(onepass.DefaultClickConfig()), 16<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Hot-key engine with 16 KB reducer budgets:")
	fmt.Printf("  exact completion at %.2fs; reduce spill %s (cold tail only)\n",
		res2.Makespan.Seconds(), fmtBytes(res2.Counters.Get("reduce.spill.bytes")))
	if len(res2.Snapshots) > 0 {
		s := res2.Snapshots[0]
		fmt.Printf("  early approximate answers: %d hot keys at %.2fs\n", s.Pairs, s.At.Seconds())
	}

	// The progress-vs-accuracy series: how output coverage accumulated
	// against map progress — the trade-off curve behind "early answers".
	if len(res2.Progress) > 0 {
		fmt.Println("\n  progress vs accuracy:")
		fmt.Println("    time      map     coverage  spilled")
		step := len(res2.Progress)/8 + 1
		for i := 0; i < len(res2.Progress); i += step {
			pp := res2.Progress[i]
			printProgress(pp, res2.OutputPairs)
		}
		printProgress(res2.Progress[len(res2.Progress)-1], res2.OutputPairs)
	}
}

func printProgress(pp onepass.ProgressPoint, totalPairs int) {
	cov := 0.0
	if totalPairs > 0 {
		cov = float64(pp.Pairs) / float64(totalPairs)
	}
	fmt.Printf("    %7.2fs  %5.1f%%  %7.1f%%  %s\n",
		pp.At.Seconds(), 100*pp.MapFraction, 100*cov, fmtBytes(float64(pp.SpilledBytes)))
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

// countState reads a CountMonoid state: the count in ASCII decimal.
func countState(state []byte) uint64 { return parseUint(string(state)) }

func parseUint(s string) uint64 {
	var n uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + uint64(c-'0')
	}
	return n
}
