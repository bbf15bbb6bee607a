// Command check runs the cross-engine differential checker: fuzzed
// (workload, config, faults) tuples across every registered engine with
// invariant audits armed, asserting identical output, reference agreement,
// monoid-on/off equivalence, fault convergence, and chained-pipeline
// trace/fault propagation.
//
// Usage:
//
//	go run ./cmd/check [-seeds N] [-seed BASE] [-out report.md] [-q]
//
// The body is cli.Check. Exit status is 1 if any tuple fails and 2 for a
// command line that does not parse; -out writes a Markdown report: the
// counts, a digest of every run, and the failing tuples.
package main

import "onepass/internal/cli"

func main() { cli.Main(cli.Check) }
