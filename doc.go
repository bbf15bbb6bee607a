// Package onepass is a from-scratch reproduction of "Towards Scalable
// One-Pass Analytics Using MapReduce" (Mazur, Li, Diao, Shenoy — IPDPS
// workshops 2011): three complete MapReduce runtimes over a deterministic
// simulated cluster, instrumented the way the paper instrumented its
// physical testbed.
//
// The engines:
//
//   - Hadoop: the stock sort-merge baseline (map-side buffer sort, pull
//     shuffle, reducer spills, blocking multi-pass merge).
//   - MapReduceOnline: the Hadoop Online Prototype (eager push pipelining
//     with backpressure, periodic snapshot answers) — still sort-merge.
//   - HashHybrid / HashIncremental / HashHotKey: the paper's contribution,
//     a purely hash-based runtime with incremental per-key aggregation and
//     a frequent-items sketch that pins hot keys in memory.
//
// All engines do real data processing — real records, real sorts with
// counted comparisons, real hash tables, real spill files re-read from a
// simulated disk — while a discrete-event simulator turns that work into
// virtual time, per-second CPU/iowait/disk series, and task timelines.
// A run is fully deterministic. The real work uses the host's cores:
// DefaultConfig sets Config.Parallelism to GOMAXPROCS, and the tasks' sorts,
// merges, hash folds and reduce scans run on that many worker goroutines
// beside the event loop without changing a byte of any result, trace or
// counter (DESIGN.md §12); Parallelism = 1 forces a serial run.
//
// Quick start:
//
//	cfg := onepass.DefaultConfig()
//	cfg.Engine = onepass.HashIncremental
//	w := onepass.PageFrequency(onepass.DefaultClickConfig())
//	res, err := onepass.RunWorkload(cfg, w, 64<<20)
//	// res.Output, res.Makespan, res.FirstOutputAt, res.CPUUtil ...
//
// Multi-stage pipelines chain jobs over one shared simulated DFS:
//
//	cl := onepass.NewCluster(cfg)
//	cl.Register(onepass.Dataset{Path: "clicks", Size: 64 << 20, Gen: w.Gen})
//	cl.RunJob(countJob)              // writes out/counts
//	cl.RunJob(onepass.TopK(10))      // reads it back (InputPath = "out/counts")
//
// A job states its aggregation once: Job.Reduce, a function of the value
// multiset, plus an optional Job.Monoid (identity, commutative combine, and
// a Final when the answer is not the element). Every engine's combiner and
// per-key state, and RunDelta's preserved partials, are derived from that
// declaration in one place (DESIGN.md §14); a job that declares no monoid
// runs through the same code with its values kept as a framed list.
//
// Streaming arrivals (Dataset.ArrivalRate), threshold queries
// (Job.EmitWhen), fault injection and recovery, and iterated graph queries
// (PageRankIter) are covered in examples/ and DESIGN.md §6.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package onepass
