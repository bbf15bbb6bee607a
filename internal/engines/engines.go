// Package engines is the launch table: the one list of the engines this
// repository can run a job on. Every launcher — onepass.Run and
// Cluster.RunJob, experiments.Session, the job service and the CLIs above
// them — resolves an engine name here and hands the descriptor's plan to
// engine.Run or engine.Start, so adding an engine is one entry in List and
// no launcher can fall out of step with another.
package engines

import (
	"fmt"
	"slices"
	"strings"

	"onepass/internal/core"
	"onepass/internal/engine"
	"onepass/internal/hadoop"
	"onepass/internal/hop"
	"onepass/internal/resident"
)

// Descriptor is one runnable engine.
type Descriptor struct {
	// Name is the canonical spelling: CLI flags, usage text, report rows.
	Name string
	// Aliases are other accepted spellings, kept for specs and cache keys
	// that predate the canonical one.
	Aliases []string
	// Plan is what the engine package plugs into the job skeleton;
	// Plan.Label is the Result.Engine string of its runs.
	Plan *engine.Plan
}

// List is every engine, in the order sweeps and usage text show them. The
// order is also the numbering of onepass.Engine.
var List = []Descriptor{
	{Name: "hadoop", Plan: hadoop.Plan},
	{Name: "mapreduce-online", Aliases: []string{"hop"}, Plan: hop.Plan},
	{Name: "hash-hybrid", Plan: core.Plan(core.HybridHash)},
	{Name: "hash-incremental", Plan: core.Plan(core.Incremental)},
	{Name: "hash-hotkey", Plan: core.Plan(core.HotKey)},
	{Name: "resident", Plan: resident.Plan},
}

// Names lists the canonical names in List order.
func Names() []string {
	out := make([]string, len(List))
	for i := range List {
		out[i] = List[i].Name
	}
	return out
}

// Find resolves a name or alias to its index in List. The error of an
// unknown name lists the valid ones.
func Find(name string) (int, error) {
	for i := range List {
		if List[i].Name == name || slices.Contains(List[i].Aliases, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (valid: %s)", name, strings.Join(Names(), ", "))
}
