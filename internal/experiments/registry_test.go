package experiments

import (
	"fmt"
	"strings"
	"testing"

	"onepass"
	"onepass/internal/engine"
	"onepass/internal/engines"
	"onepass/internal/service"
	"onepass/internal/sim"
	"onepass/internal/workloads"
)

// TestEveryDescriptorThroughEveryLauncher is the registry's completeness
// check: every descriptor in engines.List — reached by iterating the list,
// so a seventh needs no edit here — runs the same 4-block per-user-count job
// through onepass.Run, Cluster.RunJob, experiments.Session and a one-tenant
// service, under its name and each alias, and every run matches
// workloads.Reference. (It replaces TestExecuteAcceptsEveryRegistryName,
// which checked only that Session produced a makespan.)
func TestEveryDescriptorThroughEveryLauncher(t *testing.T) {
	const block, blocks, size = 64 << 10, 4, 4 * 64 << 10
	scale := Scale{Factor: size / GB, BlockSize: block, Nodes: 4, Reducers: 4,
		SampleInterval: 25 * sim.Millisecond}
	sess := NewSession(scale)
	spec := runSpec{Workload: "per-user-count", InputGB: 1}
	w := sess.workload(spec.Workload, false)
	raw := make([][]byte, blocks)
	for i := range raw {
		raw[i] = w.Gen(i, block)
	}
	want := workloads.Reference(w, raw)
	data := onepass.Dataset{Path: "input/" + w.Name, Size: size, Gen: w.Gen}

	matches := func(t *testing.T, launcher string, d *engines.Descriptor, got map[string]string, res *engine.Result) {
		t.Helper()
		if res.Engine != d.Plan.Label {
			t.Errorf("%s: Result.Engine = %q, descriptor's plan says %q", launcher, res.Engine, d.Plan.Label)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys out, reference has %d", launcher, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: %q = %q, reference %q", launcher, k, got[k], v)
			}
		}
	}

	for i := range engines.List {
		d := &engines.List[i]
		t.Run(d.Name, func(t *testing.T) {
			if got := onepass.Engine(i).String(); got != d.Name {
				t.Fatalf("onepass.Engine(%d) = %q, engines.List[%d] is %q", i, got, i, d.Name)
			}
			cfg := onepass.DefaultConfig()
			cfg.Engine = onepass.Engine(i)
			cfg.Nodes, cfg.BlockSize, cfg.Reducers, cfg.RetainOutput = scale.Nodes, block, scale.Reducers, true
			res, err := onepass.Run(cfg, data, w.Job)
			if err != nil {
				t.Fatal(err)
			}
			matches(t, "onepass.Run", d, res.Output, res)

			cl := onepass.NewCluster(cfg)
			if err := cl.Register(data); err != nil {
				t.Fatal(err)
			}
			job := w.Job
			job.InputPath = data.Path
			chained, err := cl.RunJob(job)
			if err != nil {
				t.Fatal(err)
			}
			matches(t, "Cluster.RunJob", d, chained.Output, chained)

			// Session and the service discard payloads: they must reproduce
			// the pair count and checksum of the output just checked.
			same := func(launcher string, got *engine.Result) {
				t.Helper()
				if got.Engine != d.Plan.Label || got.OutputPairs != res.OutputPairs || got.OutputChecksum != res.OutputChecksum {
					t.Fatalf("%s: %s output %d pairs / %016x, reference %d / %016x", launcher, got.Engine,
						got.OutputPairs, got.OutputChecksum, res.OutputPairs, res.OutputChecksum)
				}
			}
			for _, name := range append([]string{d.Name}, d.Aliases...) {
				if e, err := onepass.ParseEngine(name); err != nil || int(e) != i {
					t.Fatalf("ParseEngine(%q) = %v, %v; want engine %d", name, e, err, i)
				}
				spec.Engine = name
				same("Session as "+name, sess.Run(spec))

				svc, err := service.New(service.Config{
					Tenants: []service.TenantConfig{{Name: "t"}},
					Nodes:   scale.Nodes, BlockSize: block, Reducers: scale.Reducers, Audit: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := svc.RegisterInput(data.Path, size, w.Gen); err != nil {
					t.Fatal(err)
				}
				svc.AddSubmitter()
				svc.Env().Go("submit", func(p *sim.Proc) {
					defer svc.SubmitterDone()
					if err := svc.Submit(p, service.JobRequest{Tenant: "t", Engine: name, Job: w.Job, InputPath: data.Path}); err != nil {
						t.Error(err)
					}
				})
				if _, err := svc.Run(); err != nil {
					t.Fatal(err)
				}
				if n := len(svc.Results()); n != 1 {
					t.Fatalf("service as %s completed %d jobs, want 1", name, n)
				}
				same("service as "+name, svc.Results()[0])
			}
		})
	}
}

// TestUnknownEngineSaysTheSameEverywhere: every launcher refuses a name the
// registry does not know with the registry's own message, valid names
// included — Session used to panic with a bare "unknown engine".
func TestUnknownEngineSaysTheSameEverywhere(t *testing.T) {
	_, err := engines.Find("nope")
	if err == nil {
		t.Fatal("engines.Find accepted an unknown name")
	}
	want := err.Error()
	if !strings.Contains(want, "valid: "+strings.Join(engines.Names(), ", ")) {
		t.Fatalf("registry error %q does not list the valid names", want)
	}
	if _, err := onepass.ParseEngine("nope"); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ParseEngine: %v, want it to carry %q", err, want)
	}
	svc, err := service.New(service.Config{Tenants: []service.TenantConfig{{Name: "t"}}})
	if err != nil {
		t.Fatal(err)
	}
	svc.AddSubmitter()
	svc.Env().Go("submit", func(p *sim.Proc) {
		defer svc.SubmitterDone()
		if err := svc.Submit(p, service.JobRequest{Tenant: "t", Engine: "nope"}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("service.Submit: %v, want it to carry %q", err, want)
		}
	})
	if _, err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Errorf("Session.Run panicked with %q, want it to carry %q", msg, want)
			}
		}()
		NewSession(testScale()).Run(runSpec{Workload: "per-user-count", Engine: "nope", InputGB: 1})
	}()
}
