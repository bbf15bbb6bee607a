package experiments

// The incremental (delta sweep) experiment is the ROADMAP's i2MapReduce
// extension measured: after a one-pass run has primed fine-grained
// reduce-side state, how much cheaper is maintaining the answer under a
// delta than recomputing it? Each cell applies a seeded delta (record
// updates + deletes in a deterministic block subset, plus appended blocks)
// at 0.1% / 1% / 10% of the base, then compares a full re-run over the
// evolved input with the incremental re-run (changed blocks + preserved
// state only) on the same engine — the virtual time of the whole
// incremental phase (capture, state publish and merge: the scope its disk
// bytes are counted over) against the full re-run's makespan, disk bytes
// read, and the byte-identity verdict that makes the numbers trustworthy.
//
// Like the service and resident experiments this one does not go through
// Session.Run: each data point is a multi-job incremental pipeline on its
// own simulated cluster, built by the renderer (deterministically — virtual
// time, seeded deltas) and so not in the run cache.

import (
	"fmt"

	"onepass"
)

// incrementalFracs are the swept delta sizes: one per decade.
var incrementalFracs = []float64{0.001, 0.01, 0.1}

// incrementalInputGB is the base input in paper-scale GB — sized so the
// base file spans enough blocks that a 0.1% delta is still sub-block
// sparse after scaling.
const incrementalInputGB = 64

// incrementalSeed fixes the delta derivation (which blocks go dirty, which
// records mutate); any one seed reproduces byte for byte.
const incrementalSeed = 2012

func (s *Session) incrementalConfig(eng onepass.Engine) onepass.Config {
	cfg := onepass.DefaultConfig()
	cfg.Engine = eng
	cfg.Nodes = s.Scale.Nodes
	cfg.BlockSize = s.Scale.BlockSize
	cfg.Reducers = s.Scale.Reducers
	cfg.Parallelism = s.Parallelism
	cfg.Audit = true
	return cfg
}

// incrementalCell runs one (engine, delta, workload) comparison: the
// incremental path via RunDelta and the full re-run over the evolved
// dataset on a fresh cluster, returning both costs and the verdict inputs.
func (s *Session) incrementalCell(eng onepass.Engine, w *onepass.Workload, d onepass.Delta) (dr *onepass.DeltaResult, full *onepass.Result, fullDisk float64) {
	cfg := s.incrementalConfig(eng)
	data := onepass.Dataset{
		Path: "input/" + w.Name,
		Size: s.Scale.Bytes(incrementalInputGB),
		Gen:  w.Gen,
	}
	dr, err := onepass.RunDelta(cfg, data, w.Job, d)
	if err != nil {
		panic(fmt.Sprintf("experiments: incremental (%s/%s): %v", eng, w.Name, err))
	}
	cl := onepass.NewCluster(cfg)
	v2 := onepass.DeltaDataset(data, d, cfg.BlockSize)
	if err := cl.Register(v2); err != nil {
		panic(fmt.Sprintf("experiments: incremental (%s/%s): %v", eng, w.Name, err))
	}
	job := w.Job
	job.InputPath = v2.Path
	job.RetainOutput = true
	full, err = cl.RunJob(job)
	if err != nil {
		panic(fmt.Sprintf("experiments: incremental full re-run (%s/%s): %v", eng, w.Name, err))
	}
	return dr, full, cl.DiskBytesRead()
}

// IncrementalDelta renders the delta sweep: full-re-run vs incremental
// cost as a function of delta size, across every registered engine (all are
// delta-capable), with byte-identity checked per cell, plus the
// sliding-window sessionization scenario showing how an append-only delta
// confines re-folding to trailing windows.
func (s *Session) IncrementalDelta() *Report {
	rep := &Report{
		ID:    "Incremental (delta sweep)",
		Title: "full re-run vs incremental re-run over delta inputs (per-user-count)",
	}
	cc := s.Scale.clickCfg()
	for _, eng := range onepass.Engines() {
		for _, frac := range incrementalFracs {
			s.logf("running incremental delta sweep: %s at %.1f%%...", eng, frac*100)
			d := onepass.DefaultDelta(cc, incrementalSeed, frac)
			dr, full, fullDisk := s.incrementalCell(eng, onepass.PerUserCount(cc), d)
			verdict := "identical output"
			if dr.Incremental.OutputChecksum != full.OutputChecksum {
				verdict = fmt.Sprintf("OUTPUT DIVERGED (%016x vs %016x)",
					dr.Incremental.OutputChecksum, full.OutputChecksum)
			}
			rep.Rows = append(rep.Rows, Row{
				Name: fmt.Sprintf("%s, %.1f%% delta", eng, frac*100),
				Paper: fmt.Sprintf("full %.2fs / %s read",
					full.Makespan.Seconds(), fmtBytes(fullDisk)),
				Measured: fmt.Sprintf("incr %.2fs / %s read",
					dr.Stats.IncrementalSpan.Seconds(), fmtBytes(dr.Stats.IncrementalDiskReadBytes)),
				Note: fmt.Sprintf("%s; %d/%d blocks changed, %d/%d keys re-folded",
					verdict, dr.Stats.DirtyBlocks+dr.Stats.AppendedBlocks,
					dr.Stats.BaseBlocks+dr.Stats.AppendedBlocks,
					dr.Stats.AffectedKeys, dr.Stats.TotalKeys),
			})
		}
	}

	// The sliding-window scenario: appended (later) clicks touch only the
	// newest windows, so the affected-key set stays small even though the
	// sessionization state itself is holistic.
	s.logf("running incremental delta sweep: windowed sessionization (append-only)...")
	wd := onepass.Delta{Seed: incrementalSeed, AppendFrac: 0.01, Clicks: cc}
	w := onepass.WindowedSessionization(cc, 0)
	dr, full, fullDisk := s.incrementalCell(onepass.HashIncremental, w, wd)
	verdict := "identical output"
	if dr.Incremental.OutputChecksum != full.OutputChecksum {
		verdict = fmt.Sprintf("OUTPUT DIVERGED (%016x vs %016x)",
			dr.Incremental.OutputChecksum, full.OutputChecksum)
	}
	rep.Rows = append(rep.Rows, Row{
		Name: "windowed-sessionization, 1% append",
		Paper: fmt.Sprintf("full %.2fs / %s read",
			full.Makespan.Seconds(), fmtBytes(fullDisk)),
		Measured: fmt.Sprintf("incr %.2fs / %s read",
			dr.Stats.IncrementalSpan.Seconds(), fmtBytes(dr.Stats.IncrementalDiskReadBytes)),
		Note: fmt.Sprintf("%s; %d/%d window keys re-folded on hash-incremental",
			verdict, dr.Stats.AffectedKeys, dr.Stats.TotalKeys),
	})
	return rep
}
