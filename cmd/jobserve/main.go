// Command jobserve runs the multi-tenant job service: a fleet of simulated
// tenants submits jobs open-loop (seeded arrival processes on virtual time)
// to one shared cluster, the fair-share scheduler multiplexes them over the
// map/reduce slot pool, and the per-tenant report — queue-wait and job
// latency quantiles, slot-seconds, joint-backlog fair-share — prints at the
// end. Same flags and seed, byte-identical report.
//
//	jobserve
//	jobserve -tenant name=gold,weight=2,rate=6,jobs=12 -tenant name=bronze,rate=6,jobs=12
//	jobserve -tenant "name=etl,prio=1,rate=20,jobs=30,mix=sessionization@hadoop+per-user-count@hop"
//	jobserve -arrival constant -audit=false -json
//	jobserve -cpuprofile cpu.pprof -memprofile mem.pprof -exectrace exec.trace
//
// The body is cli.Jobserve. Exit status: 2 for a command line that does not
// parse, 1 for a bad flag value or a failed run or audit (the report is
// printed first).
package main

import "onepass/internal/cli"

func main() { cli.Main(cli.Jobserve) }
