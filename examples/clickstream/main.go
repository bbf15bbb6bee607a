// Clickstream: the paper's headline workload — sessionization — run on
// every engine, showing what the architecture choices buy: the sort-merge
// baselines block until all maps finish and a multi-pass merge completes,
// while the hash engine starts answering as data arrives, with less CPU.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"
	"strings"

	"onepass"
)

func main() {
	const inputSize = 16 << 20

	fmt.Println("Sessionization of a 16 MB click stream on a simulated 10-node cluster")
	fmt.Println(strings.Repeat("-", 78))
	fmt.Printf("%-18s %10s %10s %14s %14s\n", "engine", "makespan", "cpu-s", "first-answer", "reduce-spill")

	var sessions map[string]string
	for _, eng := range onepass.Engines() {
		cfg := onepass.DefaultConfig()
		cfg.Engine = eng
		cfg.BlockSize = 1 << 20
		cfg.RetainOutput = true

		w := onepass.Sessionization(onepass.DefaultClickConfig())
		res, err := onepass.RunWorkload(cfg, w, inputSize)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %9.1fs %10.1f %13.1fs %14s\n",
			eng, res.Makespan.Seconds(), res.CPU.Total(), res.FirstOutputAt.Seconds(),
			fmtBytes(res.Counters.Get("reduce.spill.bytes")))

		if sessions == nil {
			sessions = res.Output
		} else if len(sessions) != len(res.Output) {
			log.Fatalf("%v disagrees with the first engine: %d vs %d users", eng, len(res.Output), len(sessions))
		}
	}

	fmt.Printf("\nAll engines agree on %d users' sessions. A sample:\n", len(sessions))
	users := slices.Sorted(maps.Keys(sessions))
	for _, user := range users[:min(5, len(users))] {
		s := sessions[user]
		nSessions := strings.Count(s, "|") + 1
		nClicks := strings.Count(s, ",") + nSessions
		fmt.Printf("  %-10s %3d sessions over %4d clicks\n", user, nSessions, nClicks)
	}
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
