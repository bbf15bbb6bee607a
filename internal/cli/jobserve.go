package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"onepass/internal/engines"
	"onepass/internal/gen"
	"onepass/internal/loadgen"
	"onepass/internal/service"
	"onepass/internal/textfmt"
	"onepass/internal/workloads"
)

// MixEntry is one job kind a tenant submits: a workload on an engine.
type MixEntry struct{ Workload, Engine string }

// TenantSpec is one jobserve -tenant value, parsed: the service's view of
// the tenant and the load it offers.
type TenantSpec struct {
	Config service.TenantConfig
	Rate   float64 // jobs per virtual second
	Jobs   int
	Mix    []MixEntry
}

// ParseTenant reads one -tenant value: comma-separated key=value pairs.
// Keys: name (required), weight, prio, rate (jobs/s), jobs, maxrun,
// maxqueue, mix (workload@engine entries joined by +).
func ParseTenant(spec string) (TenantSpec, error) {
	t := TenantSpec{Rate: 4, Jobs: 8, Mix: []MixEntry{{"per-user-count", "hash-incremental"}}}
	t.Config.Weight = 1
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return t, fmt.Errorf("bad field %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "name":
			t.Config.Name = v
		case "weight":
			t.Config.Weight, err = strconv.ParseFloat(v, 64)
		case "prio":
			t.Config.Priority, err = strconv.Atoi(v)
		case "maxrun":
			t.Config.MaxRunning, err = strconv.Atoi(v)
		case "maxqueue":
			t.Config.MaxQueued, err = strconv.Atoi(v)
		case "rate":
			t.Rate, err = strconv.ParseFloat(v, 64)
		case "jobs":
			t.Jobs, err = strconv.Atoi(v)
		case "mix":
			t.Mix = t.Mix[:0]
			for _, m := range strings.Split(v, "+") {
				w, e, ok := strings.Cut(m, "@")
				if !ok {
					return t, fmt.Errorf("bad mix entry %q (want workload@engine)", m)
				}
				t.Mix = append(t.Mix, MixEntry{w, e})
			}
		default:
			return t, fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return t, fmt.Errorf("bad %s=%q: %v", k, v, err)
		}
	}
	if t.Config.Name == "" {
		return t, fmt.Errorf("missing name=")
	}
	if err := loadgen.CheckRate(t.Rate); err != nil {
		return t, err
	}
	return t, nil
}

// defaultFleet is the out-of-the-box demo: three tenants with 2:1:1
// weights mixing engines over the shared cluster.
func defaultFleet() []TenantSpec {
	mustParse := func(s string) TenantSpec {
		t, err := ParseTenant(s)
		if err != nil {
			panic(err)
		}
		return t
	}
	return []TenantSpec{
		mustParse("name=gold,weight=2,rate=8,jobs=10,mix=per-user-count@hash-incremental"),
		mustParse("name=silver,weight=1,rate=8,jobs=10,mix=per-user-count@hadoop+page-frequency@hop"),
		mustParse("name=batch,weight=1,rate=4,jobs=6,mix=sessionization@hash-hybrid"),
	}
}

type tenantFlags []string

func (t *tenantFlags) String() string { return strings.Join(*t, "; ") }
func (t *tenantFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

// Jobserve is the jobserve command: it runs a fleet of tenants submitting
// jobs open-loop to one shared cluster and prints the per-tenant report. A
// failed audit returns an error after the report is printed.
func Jobserve(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("jobserve", stderr)
	var tenantSpecs tenantFlags
	fs.Var(&tenantSpecs, "tenant",
		"tenant spec: name=N[,weight=W][,prio=P][,rate=R][,jobs=J][,maxrun=M][,maxqueue=Q][,mix=workload@engine+...]; repeatable (default: a 3-tenant demo fleet); workloads: "+
			strings.Join(workloads.Names(), " | ")+"; engines: "+strings.Join(engines.Names(), " | "))
	size := fs.String("size", "8MB", "per-job input size (e.g. 64MB, 1GB)")
	blockSize := fs.String("block", "1MB", "DFS block size")
	nodes := fs.Int("nodes", 10, "cluster nodes")
	reducers := fs.Int("reducers", 20, "reduce tasks per job")
	mapSlots := fs.Int("map-slots", 4, "map slot capacity per node (the scheduler's currency)")
	reduceSlots := fs.Int("reduce-slots", 4, "reduce slot capacity per node")
	memory := fs.String("taskmem", "", "per-task memory budget (default: node memory / 4)")
	arrival := fs.String("arrival", "poisson", "arrival process: poisson | constant")
	seed := fs.Int64("seed", 1, "base seed for the arrival generators")
	audit := fs.Bool("audit", true,
		"arm conservation + fairness invariants (starvation, fair-pick, slot-share); a violation fails the run")
	starvation := fs.Int("starvation-passes", 0, "admissions a tenant may be passed over while holding demand before the starvation audit fires (0 = default 64)")
	jsonOut := fs.Bool("json", false, "print the report as JSON instead of text")
	out := fs.String("out", "", "also write the text report to this file")
	parallel := fs.Int("parallel-intra", 0,
		"worker goroutines for intra-run data work (0 or 1 = serial; results are byte-identical either way)")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile of the fleet's run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a host allocation profile, taken after the fleet's run, to this file")
	execTrace := fs.String("exectrace", "", "write a Go execution trace of the fleet's run to this file (go tool trace)")
	if err := parse(fs, args); err != nil {
		return err
	}

	specs := defaultFleet()
	if len(tenantSpecs) > 0 {
		specs = specs[:0]
		for _, ts := range tenantSpecs {
			t, err := ParseTenant(ts)
			if err != nil {
				return fmt.Errorf("bad -tenant %q: %v", ts, err)
			}
			specs = append(specs, t)
		}
	}

	cfg := service.Config{
		Nodes:              *nodes,
		Reducers:           *reducers,
		MapSlotsPerNode:    *mapSlots,
		ReduceSlotsPerNode: *reduceSlots,
		Audit:              *audit,
		StarvationPasses:   *starvation,
		Parallelism:        *parallel,
	}
	var err error
	if cfg.BlockSize, err = textfmt.ParseSize(*blockSize); err != nil {
		return fmt.Errorf("bad -block: %v", err)
	}
	inputSize, err := textfmt.ParseSize(*size)
	if err != nil {
		return fmt.Errorf("bad -size: %v", err)
	}
	if *memory != "" {
		if cfg.MemoryPerTask, err = textfmt.ParseSize(*memory); err != nil {
			return fmt.Errorf("bad -taskmem: %v", err)
		}
	}
	for _, t := range specs {
		cfg.Tenants = append(cfg.Tenants, t.Config)
	}

	svc, err := service.New(cfg)
	if err != nil {
		return err
	}

	// Register each distinct workload's input once; all tenants share the
	// deterministic generated datasets.
	registered := make(map[string]bool)
	var loads []loadgen.TenantLoad
	for i, t := range specs {
		var mix []service.JobRequest
		for _, m := range t.Mix {
			w, err := workloads.ByName(m.Workload, gen.DefaultClickConfig(), gen.DefaultDocConfig())
			if err != nil {
				return fmt.Errorf("tenant %s: %v", t.Config.Name, err)
			}
			path := "input/" + w.Name
			if !registered[path] {
				if err := svc.RegisterInput(path, inputSize, w.Gen); err != nil {
					return err
				}
				registered[path] = true
			}
			mix = append(mix, service.JobRequest{Engine: m.Engine, Job: w.Job, InputPath: path})
		}
		var arr loadgen.Arrival
		switch *arrival {
		case "poisson":
			arr = loadgen.Poisson(*seed*31+int64(i), t.Rate)
		case "constant":
			arr = loadgen.Constant(t.Rate)
		default:
			return fmt.Errorf("bad -arrival %q (want poisson or constant)", *arrival)
		}
		loads = append(loads, loadgen.TenantLoad{Tenant: t.Config.Name, Arrival: arr, Jobs: t.Jobs, Mix: mix})
	}
	if err := loadgen.Drive(svc, loads); err != nil {
		return err
	}

	stopProfiles, err := startHostProfiles(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		return err
	}
	rep, runErr := svc.Run()
	if err := stopProfiles(); err != nil {
		return errors.Join(runErr, err)
	}
	if rep == nil {
		return runErr
	}
	text := rep.Render()
	if *jsonOut {
		js, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(js))
	} else {
		fmt.Fprint(stdout, text)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			return err
		}
	}
	return runErr
}
