package experiments

// The resident-iteration experiment is not a paper table — it is the
// chained-computation case the paper's one-pass argument leaves on the
// table and M3R (Shinnar et al., VLDB 2012) makes: when one job's output is
// the next job's input, a disk-backed engine pays the DFS round-trip at
// every hand-off, while the resident engine keeps reduce output alive in
// reducer memory and republishes it as memory-resident DFS blocks. The
// experiment runs the same PageRank power-iteration chain (the paper's
// "graph queries" benchmark extension) on the best disk engine and on
// resident, and attributes per-iteration disk reads and makespan to each.
// Rank arithmetic is fixed-point, so both chains must agree bit-for-bit.
//
// Like the service experiment this one does not go through Session.Run:
// each data point is a whole multi-job pipeline on its own simulated
// cluster, built by the renderer (deterministically — everything runs on
// virtual time) and so not in the run cache.

import (
	"fmt"

	"onepass"
)

// residentIterations is the number of chained power iterations after the
// init stage.
const residentIterations = 4

// residentGraphNodes scales the synthetic link graph to the session factor,
// keeping the smoke scale fast while the default scale exercises real
// chunking.
func (s *Session) residentGraphNodes() int {
	n := int(2_000_000 * s.Scale.Factor * 10)
	if n < 500 {
		n = 500
	}
	return n
}

// residentChain runs init + residentIterations chained PageRank jobs on one
// engine and returns the per-stage makespans, per-stage disk-read deltas,
// and the final iteration's result.
func (s *Session) residentChain(eng onepass.Engine) (makespans []float64, diskMB []float64, last *onepass.Result) {
	cfg := onepass.DefaultConfig()
	cfg.Engine = eng
	cfg.Nodes = s.Scale.Nodes
	cfg.BlockSize = s.Scale.BlockSize / 4
	cfg.Reducers = s.Scale.Reducers
	cfg.RetainOutput = true
	cfg.Parallelism = s.Parallelism
	cfg.Audit = true
	cl := onepass.NewCluster(cfg)

	graph := onepass.DefaultGraphConfig()
	graph.Nodes = s.residentGraphNodes()
	init := onepass.PageRankInit(graph)
	if err := cl.Register(onepass.Dataset{
		Path: "graph", Size: graph.TotalBytes(cfg.BlockSize), Gen: init.Gen,
	}); err != nil {
		panic(fmt.Sprintf("experiments: resident chain: %v", err))
	}

	run := func(job onepass.Job) *onepass.Result {
		before := cl.DiskBytesRead()
		res, err := cl.RunJob(job)
		if err != nil {
			panic(fmt.Sprintf("experiments: resident chain (%s/%s): %v", eng, job.Name, err))
		}
		makespans = append(makespans, res.Makespan.Seconds())
		diskMB = append(diskMB, (cl.DiskBytesRead()-before)/(1<<20))
		return res
	}

	job := init.Job
	job.InputPath = "graph"
	job.OutputPath = "pr/iter-00"
	run(job)
	for i := 1; i <= residentIterations; i++ {
		iter := onepass.PageRankIter(graph.Nodes)
		iter.InputPath = fmt.Sprintf("pr/iter-%02d", i-1)
		iter.OutputPath = fmt.Sprintf("pr/iter-%02d", i)
		last = run(iter)
	}
	return makespans, diskMB, last
}

// ResidentIterative renders the chained-iteration comparison: the hash
// engine re-reads every iteration's input from the DFS; the resident engine
// reads disk only for the init stage and hands every later iteration its
// input from reducer memory.
func (s *Session) ResidentIterative() *Report {
	s.logf("running resident iterative chain (%d vertices, %d iterations)...",
		s.residentGraphNodes(), residentIterations)
	diskMS, diskIO, diskLast := s.residentChain(onepass.HashIncremental)
	resMS, resIO, resLast := s.residentChain(onepass.Resident)

	rep := &Report{
		ID:    "Resident (iterative)",
		Title: "chained PageRank: disk engine vs resident in-memory hand-off",
	}
	agree := "bit-identical"
	if diskLast.OutputChecksum != resLast.OutputChecksum {
		agree = fmt.Sprintf("DIVERGED (%016x vs %016x)", diskLast.OutputChecksum, resLast.OutputChecksum)
	}
	var diskTot, resTot, diskIOTot, resIOTot float64
	for i := range diskMS {
		stage := fmt.Sprintf("iteration %d", i)
		if i == 0 {
			stage = "init (reads graph)"
		}
		rep.Rows = append(rep.Rows, Row{
			Name:     stage,
			Paper:    fmt.Sprintf("%.2fs / %.1f MB read", diskMS[i], diskIO[i]),
			Measured: fmt.Sprintf("%.2fs / %.1f MB read", resMS[i], resIO[i]),
			Note:     "hash-incremental vs resident",
		})
		diskTot += diskMS[i]
		resTot += resMS[i]
		diskIOTot += diskIO[i]
		resIOTot += resIO[i]
	}
	speedup := "n/a"
	if resTot > 0 {
		speedup = fmt.Sprintf("%.2fx chain speedup", diskTot/resTot)
	}
	rep.Rows = append(rep.Rows, Row{
		Name:     "chain total",
		Paper:    fmt.Sprintf("%.2fs / %.1f MB read", diskTot, diskIOTot),
		Measured: fmt.Sprintf("%.2fs / %.1f MB read", resTot, resIOTot),
		Note:     speedup,
	})
	rep.Rows = append(rep.Rows, Row{
		Name:     "final ranks",
		Paper:    fmt.Sprintf("%016x", diskLast.OutputChecksum),
		Measured: fmt.Sprintf("%016x", resLast.OutputChecksum),
		Note:     agree,
	})
	rep.Rows = append(rep.Rows, Row{
		Name:     "disk reads after init",
		Paper:    fmt.Sprintf("%.1f MB", diskIOTot-diskIO[0]),
		Measured: fmt.Sprintf("%.1f MB", resIOTot-resIO[0]),
		Note:     "resident hand-off target: 0 MB",
	})
	return rep
}
