package onepass

import (
	"bufio"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declaredFuncs returns the functions and methods declared in the non-test
// Go files of dir, as "Func" and "Recv.Method".
func declaredFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Recv == nil {
				out[fn.Name.Name] = true
				continue
			}
			typ := fn.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			out[typ.(*ast.Ident).Name+"."+fn.Name.Name] = true
		}
	}
	return out
}

// TestReachAllowList keeps ci/reach-allow.txt honest without running the
// instrumented build: every line names a function that exists and says why
// it stays, so a line left behind by a deletion fails here.
func TestReachAllowList(t *testing.T) {
	f, err := os.Open("ci/reach-allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decls := map[string]map[string]bool{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Errorf("ci/reach-allow.txt:%d: %q: want <package path> <function> <reason>", n, line)
			continue
		}
		pkg, fn := fields[0], fields[1]
		if seen[pkg+" "+fn] {
			t.Errorf("ci/reach-allow.txt:%d: %s %s listed twice", n, pkg, fn)
		}
		seen[pkg+" "+fn] = true
		dir, ok := strings.CutPrefix(pkg, "onepass")
		if !ok || (dir != "" && !strings.HasPrefix(dir, "/")) {
			t.Errorf("ci/reach-allow.txt:%d: %q is not a package of this module", n, pkg)
			continue
		}
		if decls[pkg] == nil {
			decls[pkg] = declaredFuncs(t, "."+dir)
		}
		if !decls[pkg][fn] {
			t.Errorf("ci/reach-allow.txt:%d: %s declares no %s; delete the line", n, pkg, fn)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBenchTrajectory holds BENCH_TRAJECTORY.json to the benchmark it
// records: it parses, and every workload and metric it names is one
// BENCHMARK.json declares.
func TestBenchTrajectory(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	var traj struct {
		Entries []struct {
			PR        int
			Workloads map[string]struct {
				Pairs   int
				Metrics map[string]struct{ Parent, Change *float64 }
			}
		}
	}
	for path, v := range map[string]any{"BENCHMARK.json": &bench, "BENCH_TRAJECTORY.json": &traj} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics[m.Name] = true
	}
	if len(traj.Entries) == 0 {
		t.Fatal("BENCH_TRAJECTORY.json has no entries")
	}
	for _, e := range traj.Entries {
		for w, run := range e.Workloads {
			if !workloads[w] {
				t.Errorf("PR %d: workload %q is not in BENCHMARK.json", e.PR, w)
			}
			if run.Pairs <= 0 || len(run.Metrics) == 0 {
				t.Errorf("PR %d %s: want a pair count and at least one metric", e.PR, w)
			}
			for m, v := range run.Metrics {
				if !metrics[m] {
					t.Errorf("PR %d %s: metric %q is not in BENCHMARK.json", e.PR, w, m)
				}
				if v.Parent == nil || v.Change == nil {
					t.Errorf("PR %d %s %s: want both a parent and a change median", e.PR, w, m)
				}
			}
		}
	}
}
