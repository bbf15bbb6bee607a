// Command benchdiff compares `go test -bench` output against a checked-in
// baseline and fails (exit 1) when a benchmark drifts beyond a threshold in
// EITHER direction. It is CI's benchmark smoke gate:
//
//	go test -bench=. -benchtime=1x -benchmem ./... | tee /tmp/bench.txt
//	go run ./cmd/benchdiff -baseline ci/bench-baseline.txt -current /tmp/bench.txt
//
// The default metrics are allocs/op and B/op: allocation counts and byte
// volumes are stable across machines and Go patch releases, so a >25% jump
// is a real regression, not scheduler noise — which also makes the check
// meaningful at -benchtime=1x, where ns/op from a single iteration is mostly
// noise. Pass -metrics ns/op (with a generous -threshold) only on a quiet,
// pinned machine.
//
// The gate is a two-sided ratchet. Regressions fail for the obvious reason.
// Improvements beyond the threshold ALSO fail: an unclaimed improvement
// means the checked-in baseline is stale, and a stale baseline would let a
// follow-up change silently give the win back. Claim improvements (and
// accept intentional regressions) by refreshing the baseline in place:
//
//	go test -bench=. -benchtime=1x -benchmem ./... | tee /tmp/bench.txt
//	go run ./cmd/benchdiff -current /tmp/bench.txt -update
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// entry holds one benchmark's metrics, keyed by unit ("ns/op", "B/op", ...).
type entry map[string]float64

// parseBench reads `go test -bench` output into key→metrics, where key is
// "pkg.BenchmarkName" with the -GOMAXPROCS suffix stripped so runs from
// hosts with different core counts compare.
func parseBench(r io.Reader) (map[string]entry, error) {
	out := make(map[string]entry)
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Benchmark lines: name, iterations, then value/unit pairs.
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip -GOMAXPROCS
			}
		}
		e := make(entry)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // not a value/unit pair (e.g. trailing note)
			}
			e[fields[i+1]] = v
		}
		if len(e) > 0 {
			out[pkg+"."+name] = e
		}
	}
	return out, sc.Err()
}

func parseBenchFile(path string) (map[string]entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

// row is one (benchmark, metric) comparison.
type row struct {
	key    string
	metric string
	base   float64
	cur    float64
	delta  float64 // cur/base - 1
	status string  // "ok", "REGRESS", "IMPROVE"
}

// report is the outcome of comparing a current run against the baseline.
type report struct {
	rows         []row
	missing      []string // in baseline, absent from current run
	added        []string // in current run, absent from baseline
	compared     int
	regressions  int
	improvements int
}

// compare evaluates every baseline benchmark on each metric with a two-sided
// threshold. Comparisons where both sides sit below minVal are skipped as
// noise-floor.
func compare(base, cur map[string]entry, metrics []string, threshold, minVal float64) report {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var rep report
	for _, k := range keys {
		ce, inCur := cur[k]
		seen := false
		for _, m := range metrics {
			b, ok := base[k][m]
			if !ok {
				continue
			}
			seen = true
			if !inCur {
				continue
			}
			c, ok := ce[m]
			if !ok {
				continue
			}
			rep.compared++
			if b < minVal && c < minVal {
				continue
			}
			delta := 0.0
			if b > 0 {
				delta = c/b - 1
			} else if c > 0 {
				delta = 1 // 0 → nonzero counts as full regression
			}
			r := row{key: k, metric: m, base: b, cur: c, delta: delta, status: "ok"}
			switch {
			case delta > threshold:
				r.status = "REGRESS"
				rep.regressions++
			case delta < -threshold:
				r.status = "IMPROVE"
				rep.improvements++
			}
			rep.rows = append(rep.rows, r)
		}
		if seen && !inCur {
			rep.missing = append(rep.missing, k)
		}
	}
	added := make([]string, 0)
	for k := range cur {
		if _, ok := base[k]; !ok {
			added = append(added, k)
		}
	}
	sort.Strings(added)
	rep.added = added
	return rep
}

// benchstatTable renders an old/new/delta comparison in the layout of
// golang.org/x/perf/cmd/benchstat, one section per metric — the nightly
// workflow uploads this as its comparison artifact without needing the tool
// itself installed.
func benchstatTable(base, cur map[string]entry, metrics []string) string {
	keys := make([]string, 0, len(base))
	for k := range base {
		if _, ok := cur[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, m := range metrics {
		fmt.Fprintf(&sb, "%-52s %15s %15s %9s\n", "name", "old "+m, "new "+m, "delta")
		for _, k := range keys {
			b, okB := base[k][m]
			c, okC := cur[k][m]
			if !okB || !okC {
				continue
			}
			name := k
			if i := strings.LastIndex(name, ".Benchmark"); i >= 0 {
				name = name[i+len(".Benchmark"):]
			}
			delta := "~"
			if b > 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(c/b-1))
			}
			fmt.Fprintf(&sb, "%-52s %15s %15s %9s\n", name, humanize(b), humanize(c), delta)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// humanize renders a metric value the way benchstat does: scaled with a
// k/M/G suffix and two significant decimals.
func humanize(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// verdict maps a report to the process exit code: 0 passes, 1 fails the
// gate. Both regressions and unclaimed improvements fail — the two sides of
// the ratchet.
func verdict(rep report) int {
	if rep.regressions > 0 || rep.improvements > 0 {
		return 1
	}
	return 0
}

func main() {
	baseline := flag.String("baseline", "ci/bench-baseline.txt", "checked-in baseline bench output")
	current := flag.String("current", "", "bench output to compare (required)")
	metrics := flag.String("metrics", "allocs/op,B/op", "comma-separated metrics to gate on")
	threshold := flag.Float64("threshold", 0.25, "fail when |current/baseline - 1| exceeds this")
	minVal := flag.Float64("min", 8, "skip comparisons where both values are below this (noise floor)")
	update := flag.Bool("update", false, "rewrite the baseline from -current instead of gating")
	benchstat := flag.String("benchstat", "", "also write a benchstat-style comparison table to this file")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -baseline ci/bench-baseline.txt -current bench.txt [-update]")
		os.Exit(2)
	}
	gateOn := strings.Split(*metrics, ",")

	cur, err := parseBenchFile(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if len(cur) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no benchmarks parsed from %s\n", *current)
		os.Exit(2)
	}

	if *update {
		data, err := os.ReadFile(*current)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baseline, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("baseline %s refreshed from %s (%d benchmarks)\n", *baseline, *current, len(cur))
		return
	}

	base, err := parseBenchFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no benchmarks parsed from %s\n", *baseline)
		os.Exit(2)
	}

	if *benchstat != "" {
		if err := os.WriteFile(*benchstat, []byte(benchstatTable(base, cur, gateOn)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
	}

	rep := compare(base, cur, gateOn, *threshold, *minVal)
	for _, k := range rep.missing {
		fmt.Printf("MISSING  %-60s (in baseline, not in current run)\n", k)
	}
	for _, r := range rep.rows {
		fmt.Printf("%-8s %-60s %14.1f -> %14.1f %s (%+.1f%%)\n",
			r.status, r.key, r.base, r.cur, r.metric, 100*r.delta)
	}
	for _, k := range rep.added {
		fmt.Printf("NEW      %-60s (not in baseline — refresh it with -update)\n", k)
	}

	fmt.Printf("\ncompared %d benchmark metrics (%s) at ±%.0f%%: %d regression(s), %d unclaimed improvement(s)\n",
		rep.compared, strings.Join(gateOn, ", "), 100**threshold, rep.regressions, rep.improvements)
	if rep.compared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: nothing compared — metric missing? (run benchmarks with -benchmem)")
		os.Exit(2)
	}
	if rep.improvements > 0 {
		fmt.Println("improvements beyond the threshold mean the baseline is stale; refresh the baseline:")
		fmt.Printf("  go test -bench=. -benchtime=1x -benchmem -run '^$' ./... | tee /tmp/bench.txt\n")
		fmt.Printf("  go run ./cmd/benchdiff -baseline %s -current /tmp/bench.txt -update\n", *baseline)
	}
	os.Exit(verdict(rep))
}
