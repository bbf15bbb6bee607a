package experiments

import (
	"context"
	"errors"
	"fmt"

	"onepass/internal/parallel"
)

// Experiment is one reproduced table/figure/section. Its renderer is the
// only description of the runs it needs: it calls Session.Run wherever it
// wants a result, and a run timed against another (the fault schedules, the
// chaos sweep) is simply the statement after its baseline.
type Experiment struct {
	ID     string // the rendered Report.ID and the name -exp filters on
	Render func(s *Session) *Report
}

// Experiments returns every reproduced experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "Table I", Render: (*Session).TableI},
		{ID: "Table II", Render: (*Session).TableII},
		{ID: "Table III", Render: (*Session).TableIII},
		{ID: "§III.B.1", Render: (*Session).ParsingCost},
		{ID: "§III.B.2", Render: (*Session).MapOutputWriteShare},
		{ID: "Fig 2(a)", Render: (*Session).Fig2a},
		{ID: "Fig 2(b)", Render: (*Session).Fig2b},
		{ID: "Fig 2(c)", Render: (*Session).Fig2c},
		{ID: "Fig 2(d)", Render: (*Session).Fig2d},
		{ID: "Fig 2(e)", Render: (*Session).Fig2e},
		{ID: "Fig 2(f)", Render: (*Session).Fig2f},
		{ID: "Fig 3", Render: (*Session).Fig3},
		{ID: "Fig 4", Render: (*Session).Fig4},
		{ID: "§V", Render: (*Session).SecVHashVsHadoop},
		{ID: "§V (spills)", Render: (*Session).SecVSpillReduction},
		{ID: "§IV/§V (latency)", Render: (*Session).SecVIncrementalLatency},
		{ID: "§I/§IV (streaming)", Render: (*Session).Streaming},
		{ID: "Fault tolerance", Render: (*Session).FaultTolerance},
		{ID: "Chaos sweep", Render: (*Session).ChaosSweep},
		{ID: "Ablation (fan-in)", Render: (*Session).AblationFanIn},
		{ID: "Ablation (HOP chunk)", Render: (*Session).AblationHOPChunk},
		{ID: "Ablation (hot-key memory)", Render: (*Session).AblationHotKeyMemory},
		{ID: "Resident (iterative)", Render: (*Session).ResidentIterative},
		{ID: "Service (saturation)", Render: (*Session).ServiceSaturation},
		{ID: "Incremental (delta sweep)", Render: (*Session).IncrementalDelta},
	}
}

// RunAll renders the given experiments, up to workers of them at a time
// (GOMAXPROCS when workers <= 0), and returns the reports in the order
// given. Every simulation runs on a private virtual cluster and the session
// cache shares a spec two experiments both need (the second requester waits
// for the first's execution), so the reports are byte-identical to a serial
// render of each experiment in turn, whatever the width or scheduling. A
// renderer that panics stops further experiments from starting and comes
// back as an error naming it; so does a cancelled ctx.
func (s *Session) RunAll(ctx context.Context, workers int, exps []Experiment) ([]*Report, error) {
	reps := make([]*Report, len(exps))
	err := parallel.ForEach(ctx, workers, len(exps), func(i int) error {
		reps[i] = exps[i].Render(s)
		return nil
	})
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return nil, fmt.Errorf("experiments: %s: %w", exps[pe.Index].ID, err)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return reps, nil
}
