// Command runjob executes one workload on one engine over the simulated
// cluster and prints the run's metrics: the quickest way to poke at the
// system.
//
//	runjob -workload sessionization -engine hash-incremental -size 64MB
//	runjob -workload per-user-count -engine hadoop -ssd
//	runjob -workload sessionization -engine hash-hotkey -trace run.json
//	runjob -workload per-user-count -engine resident -delta 0.01
//	runjob -workload sessionization -engine hadoop -cpuprofile cpu.pprof
//	runjob -workload per-user-count -engine hash-incremental -exectrace exec.trace
//
// The body is cli.Runjob. Exit status: 2 for a command line that does not
// parse, 1 for a bad flag value, a failed run or a -delta whose output
// diverged from the full re-run.
package main

import "onepass/internal/cli"

func main() { cli.Main(cli.Runjob) }
