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
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"onepass/internal/engines"
	"onepass/internal/gen"
	"onepass/internal/hostprof"
	"onepass/internal/loadgen"
	"onepass/internal/service"
	"onepass/internal/textfmt"
	"onepass/internal/workloads"
)

type mixEntry struct{ workload, engine string }

type tenantSpec struct {
	cfg  service.TenantConfig
	rate float64
	jobs int
	mix  []mixEntry
}

// parseTenant reads one -tenant value: comma-separated key=value pairs.
// Keys: name (required), weight, prio, rate (jobs/s), jobs, maxrun,
// maxqueue, mix (workload@engine entries joined by +).
func parseTenant(spec string) (tenantSpec, error) {
	t := tenantSpec{rate: 4, jobs: 8, mix: []mixEntry{{"per-user-count", "hash-incremental"}}}
	t.cfg.Weight = 1
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return t, fmt.Errorf("bad field %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "name":
			t.cfg.Name = v
		case "weight":
			t.cfg.Weight, err = strconv.ParseFloat(v, 64)
		case "prio":
			t.cfg.Priority, err = strconv.Atoi(v)
		case "maxrun":
			t.cfg.MaxRunning, err = strconv.Atoi(v)
		case "maxqueue":
			t.cfg.MaxQueued, err = strconv.Atoi(v)
		case "rate":
			t.rate, err = strconv.ParseFloat(v, 64)
		case "jobs":
			t.jobs, err = strconv.Atoi(v)
		case "mix":
			t.mix = t.mix[:0]
			for _, m := range strings.Split(v, "+") {
				w, e, ok := strings.Cut(m, "@")
				if !ok {
					return t, fmt.Errorf("bad mix entry %q (want workload@engine)", m)
				}
				t.mix = append(t.mix, mixEntry{w, e})
			}
		default:
			return t, fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return t, fmt.Errorf("bad %s=%q: %v", k, v, err)
		}
	}
	if t.cfg.Name == "" {
		return t, fmt.Errorf("missing name=")
	}
	if err := loadgen.CheckRate(t.rate); err != nil {
		return t, err
	}
	return t, nil
}

// defaultFleet is the out-of-the-box demo: three tenants with 2:1:1
// weights mixing engines over the shared cluster.
func defaultFleet() []tenantSpec {
	mustParse := func(s string) tenantSpec {
		t, err := parseTenant(s)
		if err != nil {
			panic(err)
		}
		return t
	}
	return []tenantSpec{
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

func main() {
	log.SetFlags(0)
	var tenantSpecs tenantFlags
	flag.Var(&tenantSpecs, "tenant",
		"tenant spec: name=N[,weight=W][,prio=P][,rate=R][,jobs=J][,maxrun=M][,maxqueue=Q][,mix=workload@engine+...]; repeatable (default: a 3-tenant demo fleet); workloads: "+
			strings.Join(workloads.Names(), " | ")+"; engines: "+strings.Join(engines.Names(), " | "))
	size := flag.String("size", "8MB", "per-job input size (e.g. 64MB, 1GB)")
	blockSize := flag.String("block", "1MB", "DFS block size")
	nodes := flag.Int("nodes", 10, "cluster nodes")
	reducers := flag.Int("reducers", 20, "reduce tasks per job")
	mapSlots := flag.Int("map-slots", 4, "map slot capacity per node (the scheduler's currency)")
	reduceSlots := flag.Int("reduce-slots", 4, "reduce slot capacity per node")
	memory := flag.String("taskmem", "", "per-task memory budget (default: node memory / 4)")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson | constant")
	seed := flag.Int64("seed", 1, "base seed for the arrival generators")
	audit := flag.Bool("audit", true,
		"arm conservation + fairness invariants (starvation, fair-pick, slot-share); a violation fails the run")
	starvation := flag.Int("starvation-passes", 0, "admissions a tenant may be passed over while holding demand before the starvation audit fires (0 = default 64)")
	jsonOut := flag.Bool("json", false, "print the report as JSON instead of text")
	out := flag.String("out", "", "also write the text report to this file")
	parallel := flag.Int("parallel-intra", 0,
		"worker goroutines for intra-run data work (0 or 1 = serial; results are byte-identical either way)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the fleet's run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a host allocation profile, taken after the fleet's run, to this file")
	execTrace := flag.String("exectrace", "", "write a Go execution trace of the fleet's run to this file (go tool trace)")
	flag.Parse()

	specs := defaultFleet()
	if len(tenantSpecs) > 0 {
		specs = specs[:0]
		for _, ts := range tenantSpecs {
			t, err := parseTenant(ts)
			if err != nil {
				log.Fatalf("bad -tenant %q: %v", ts, err)
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
		log.Fatalf("bad -block: %v", err)
	}
	inputSize, err := textfmt.ParseSize(*size)
	if err != nil {
		log.Fatalf("bad -size: %v", err)
	}
	if *memory != "" {
		if cfg.MemoryPerTask, err = textfmt.ParseSize(*memory); err != nil {
			log.Fatalf("bad -taskmem: %v", err)
		}
	}
	for _, t := range specs {
		cfg.Tenants = append(cfg.Tenants, t.cfg)
	}

	svc, err := service.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Register each distinct workload's input once; all tenants share the
	// deterministic generated datasets.
	registered := make(map[string]bool)
	var loads []loadgen.TenantLoad
	for i, t := range specs {
		var mix []service.JobRequest
		for _, m := range t.mix {
			w, err := workloads.ByName(m.workload, gen.DefaultClickConfig(), gen.DefaultDocConfig())
			if err != nil {
				log.Fatalf("tenant %s: %v", t.cfg.Name, err)
			}
			path := "input/" + w.Name
			if !registered[path] {
				if err := svc.RegisterInput(path, inputSize, w.Gen); err != nil {
					log.Fatal(err)
				}
				registered[path] = true
			}
			mix = append(mix, service.JobRequest{Engine: m.engine, Job: w.Job, InputPath: path})
		}
		var arr loadgen.Arrival
		switch *arrival {
		case "poisson":
			arr = loadgen.Poisson(*seed*31+int64(i), t.rate)
		case "constant":
			arr = loadgen.Constant(t.rate)
		default:
			log.Fatalf("bad -arrival %q (want poisson or constant)", *arrival)
		}
		loads = append(loads, loadgen.TenantLoad{Tenant: t.cfg.Name, Arrival: arr, Jobs: t.jobs, Mix: mix})
	}
	if err := loadgen.Drive(svc, loads); err != nil {
		log.Fatal(err)
	}

	stopProfiles := hostprof.Start(*cpuProfile, *memProfile, *execTrace)
	rep, runErr := svc.Run()
	stopProfiles()
	if rep == nil {
		log.Fatal(runErr)
	}
	text := rep.Render()
	if *jsonOut {
		js, err := rep.JSON()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(js))
	} else {
		fmt.Print(text)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}
