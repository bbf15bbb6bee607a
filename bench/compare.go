package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// worsening is how much worse b is than a for a metric, as a share of a;
// negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults reports, per workload and end-to-end metric, b's median
// against a's and that metric's bound. It returns false when any metric is
// worse beyond its bound, or when the two files did not measure the same
// inputs (seed or record counts differ), which makes the comparison void.
func compareResults(w io.Writer, a, b *allResults) bool {
	ok := true
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "seeds differ: %d vs %d\n", a.Seed, b.Seed)
		ok = false
	}
	fmt.Fprintf(w, "%-22s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, name := range sortedKeys(a.Workloads) {
		ra, rb := a.Workloads[name].Timed, (*result)(nil)
		if set := b.Workloads[name]; set != nil {
			rb = set.Timed
		}
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-22s missing from one file\n", name)
			ok = false
			continue
		}
		if len(ra.Passes) > 0 && len(rb.Passes) > 0 && ra.Passes[0].Records != rb.Passes[0].Records {
			fmt.Fprintf(w, "%-22s records differ: %d vs %d\n", name, ra.Passes[0].Records, rb.Passes[0].Records)
			ok = false
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-22s failed operations: %d vs %d\n", name, ra.Failed, rb.Failed)
			ok = false
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			worse := worsening(d, va, vb)
			bound := d.Bound
			if d.Clock == "virtual clock" {
				bound = sameSeedVirtualBound
			}
			verdict := ""
			if worse > bound {
				verdict = "  REGRESS"
				ok = false
			}
			fmt.Fprintf(w, "%-22s %-24s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n",
				name, d.Name, va, vb, worse*100, bound*100, verdict)
		}
	}
	return ok
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	load := func(path string) (*allResults, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r allResults
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(r.Workloads) == 0 {
			return nil, fmt.Errorf("%s: no workloads (want a latest.json written by a full run)", path)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b), nil
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
