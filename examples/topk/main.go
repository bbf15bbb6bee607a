// Topk: a two-stage pipeline on a shared simulated cluster — count page
// visits, then select the global top 10 — exercising the paper's §IV open
// question ("how to support the combine function for complex analytical
// tasks such as top-k"): partial top-k lists are a mergeable bounded state,
// so stage two declares them a monoid, gets both a combiner and incremental
// per-key state, and runs on the hash engine like any other job.
package main

import (
	"fmt"
	"log"

	"onepass"
)

func main() {
	cfg := onepass.DefaultConfig()
	cfg.Engine = onepass.HashIncremental
	cfg.BlockSize = 1 << 20
	cfg.RetainOutput = true
	cl := onepass.NewCluster(cfg)

	w := onepass.PageFrequency(onepass.DefaultClickConfig())
	if err := cl.Register(onepass.Dataset{Path: "input/clicks", Size: 32 << 20, Gen: w.Gen}); err != nil {
		log.Fatal(err)
	}

	// Stage 1: COUNT(*) GROUP BY url.
	count := w.Job
	count.InputPath = "input/clicks"
	count.OutputPath = "out/counts"
	res1, err := cl.RunJob(count)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 1 (%s): %d distinct pages in %.1fs virtual\n",
		res1.Engine, len(res1.Output), res1.Makespan.Seconds())

	// Stage 2: global top 10 over stage 1's output files.
	top := onepass.TopK(10)
	top.InputPath = "out/counts"
	res2, err := cl.RunJob(top)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 2 (%s): top-10 in %.2fs virtual (pipeline total %.1fs)\n\n",
		res2.Engine, res2.Makespan.Seconds(), cl.Now())

	names, counts := onepass.ParseTopK(res2.Output["top"])
	fmt.Println("rank  visits  page")
	for i := range names {
		fmt.Printf("%4d  %6d  %s\n", i+1, counts[i], names[i])
	}
}
