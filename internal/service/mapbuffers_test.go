package service_test

import (
	"runtime"
	"testing"

	"onepass/internal/engine"
	"onepass/internal/gen"
	"onepass/internal/loadgen"
	"onepass/internal/service"
	"onepass/internal/workloads"
)

// raceEnabled is set when the race detector is built in (race_test.go).
var raceEnabled bool

// mixEntry is one job template of a tenant's mix.
type mixEntry struct {
	tenant, engine string
	w              *workloads.Workload
}

// runMix registers each entry's 1 MB input, four 256 KB blocks: fewer than
// the six map slots a job holds. The entries name distinct workloads, and a
// tenant's are adjacent. Each tenant submits a burst of jobs jobs that
// cycles through its entries. runMix returns the service after
// Run, the bytes Run allocated and the map input records of every job.
func runMix(t *testing.T, cfg service.Config, jobs int, mix []mixEntry) (svc *service.Service, allocBytes uint64, records float64) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var loads []loadgen.TenantLoad
	for _, m := range mix {
		path := "input/" + m.w.Name
		if err := svc.RegisterInput(path, 1<<20, m.w.Gen); err != nil {
			t.Fatal(err)
		}
		req := service.JobRequest{Engine: m.engine, Job: m.w.Job, InputPath: path}
		if n := len(loads); n > 0 && loads[n-1].Tenant == m.tenant {
			loads[n-1].Mix = append(loads[n-1].Mix, req)
			continue
		}
		loads = append(loads, loadgen.TenantLoad{
			Tenant: m.tenant, Arrival: loadgen.Constant(200), Jobs: jobs, Mix: []service.JobRequest{req},
		})
	}
	if err := loadgen.Drive(svc, loads); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := svc.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if want := jobs * len(loads); rep.Jobs != want {
		t.Fatalf("%d of %d jobs finished", rep.Jobs, want)
	}
	for _, res := range svc.Results() {
		records += res.Counters.Get(engine.CtrMapInputRecords)
	}
	return svc, after.TotalAlloc - before.TotalAlloc, records
}

// smallJobFleet runs three tenants' bursts of six jobs on hadoop,
// mapreduce-online and hash-incremental. Three jobs run at once and the
// rest queue.
func smallJobFleet(t *testing.T) (*service.Service, uint64, float64) {
	cc := gen.DefaultClickConfig()
	return runMix(t, testConfig(
		service.TenantConfig{Name: "a"}, service.TenantConfig{Name: "b"}, service.TenantConfig{Name: "c"},
	), 6, []mixEntry{
		{"a", "hadoop", workloads.Sessionization(cc)},
		{"b", "mapreduce-online", workloads.PerUserCount(cc)},
		{"c", "hash-incremental", workloads.PageFrequency(cc)},
	})
}

// TestFleetReusesMapBuffersAcrossJobs: the service's jobs share one
// map-output buffer list, which keeps a released buffer while the list is
// shorter than the map tasks yet to start on the whole service, queued jobs'
// blocks included. A job here has fewer blocks than map slots, so on a list
// of its own it would recycle nothing. This fleet allocates 139 bytes per
// map input record with a list per job, as many with a shared list that does
// not count queued jobs, and 77 as it is.
func TestFleetReusesMapBuffersAcrossJobs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	_, allocBytes, records := smallJobFleet(t)
	perRecord := float64(allocBytes) / records
	t.Logf("%d bytes for %.0f map input records: %.0f bytes per record", allocBytes, records, perRecord)
	const bound = 100.0
	if perRecord > bound {
		t.Errorf("%.0f bytes per map input record, bound %.0f", perRecord, bound)
	}
}

// Once a service's run is over no map task is left to start, so its shared
// list holds no buffer and expects no task. The second fleet runs one job at
// a time and ends on a declared job, which fills no buffer: the buffers the
// hadoop job before it left for it go as its maps start.
func TestMapBufferListDrainsWithTheFleet(t *testing.T) {
	cc := gen.DefaultClickConfig()
	alternating, _, _ := runMix(t, testConfig(service.TenantConfig{Name: "solo", MaxRunning: 1}), 4, []mixEntry{
		{"solo", "hadoop", workloads.Sessionization(cc)},
		{"solo", "hash-incremental", workloads.PageFrequency(cc)},
	})
	fleet, _, _ := smallJobFleet(t)
	for _, f := range []struct {
		name string
		svc  *service.Service
	}{{"small-job fleet", fleet}, {"alternating", alternating}} {
		if bufs := f.svc.MapBuffers(); bufs.Len() != 0 || bufs.Unstarted() != 0 {
			t.Errorf("%s: after Run the list holds %d buffers and expects %d map tasks, want 0 and 0",
				f.name, bufs.Len(), bufs.Unstarted())
		}
	}
}
