// Command experiments reproduces every table and figure of the paper's
// evaluation and prints (or writes) the paper-vs-measured report that backs
// EXPERIMENTS.md.
//
//	experiments                     # run everything at default scale
//	experiments -scale 0.001        # 256 GB paper datasets become 256 MB
//	experiments -out EXPERIMENTS.md # write the markdown report
//	experiments -parallel 8         # up to 8 experiments rendering at once
//	experiments -exp 'Table'        # only experiments whose ID matches
//	experiments -trace-dir traces   # one Chrome trace file per executed run
//	experiments -profile-dir profs  # one RunProfile JSON per executed run
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof -exectrace exec.trace
//	                                # host profiles of the sweep
//
// Experiments render concurrently on a worker pool (-parallel, default
// GOMAXPROCS), each running its simulations as it reaches them; a run two
// experiments share executes once. Every run owns a private simulated
// cluster and reports are written in registry order, so output is
// byte-identical to a serial sweep. Every sweep runs its simulations afresh:
// no result is persisted between invocations, so the report is always the
// current code's. -exp with an experiment's ID is the way to regenerate one
// report. The body is cli.Experiments.
package main

import "onepass/internal/cli"

func main() { cli.Main(cli.Experiments) }
