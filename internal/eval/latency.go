package eval

import (
	"fmt"
	"time"

	rabit "repro"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/workflow"
)

// StageLatency summarises one pipeline stage's histogram for the
// breakdown columns.
type StageLatency struct {
	// Count is how many spans the stage recorded.
	Count int64
	// P50 and P95 are the stage's median and tail latency estimates.
	P50 time.Duration
	P95 time.Duration
}

// LatencyResult is one row of the Section II-C latency experiment.
type LatencyResult struct {
	// Mode names the configuration.
	Mode string
	// Commands is how many commands the workload issued.
	Commands int
	// CheckPerCommand is RABIT's mean checking time per command.
	CheckPerCommand time.Duration
	// ExecPerCommand is the mean (paced) execution time per command.
	ExecPerCommand time.Duration
	// OverheadPct is check time relative to execution time — the
	// paper's 1.5% (no simulator) and 112% (simulator with GUI).
	OverheadPct float64
	// Validate, Trajectory, and Compare decompose the check time per
	// stage, sourced from the engine's telemetry histograms. Trajectory
	// is zero-count without the Extended Simulator.
	Validate   StageLatency
	Trajectory StageLatency
	Compare    StageLatency
	// SimKept and SimPruned count solids/planes the Extended Simulator's
	// broadphase kept for (resp. pruned from) the narrow phase, summed
	// over the workload's trajectory checks. Both zero without the
	// simulator (or with its GUI, which disables pruning).
	SimKept   int64
	SimPruned int64
}

// stageLatency reads one stage histogram out of a registry.
func stageLatency(reg *obs.Registry, stage string) StageLatency {
	h := reg.Histogram(stage)
	return StageLatency{Count: h.Count(), P50: h.P50(), P95: h.P95()}
}

// Latency measures RABIT's interception overhead over the safe Fig. 5
// workload, under real-time pacing (device time divided by speedup):
// once without the Extended Simulator, once with it headless, and once
// with its GUI rendering every collision check — the deployment the
// paper measured at 112% overhead.
func Latency(seed int64, speedup float64) ([]LatencyResult, error) {
	modes := []struct {
		name string
		opt  rabit.Options
	}{
		{"RABIT (no simulator)", rabit.Options{
			Stage:      env.StageTestbed,
			Generation: rabit.GenModified,
			Multiplex:  rabit.MultiplexTime,
			Seed:       seed,
		}},
		{"RABIT + Extended Simulator (headless)", rabit.Options{
			Stage:             env.StageTestbed,
			Generation:        rabit.GenModified,
			Multiplex:         rabit.MultiplexTime,
			ExtendedSimulator: true,
			Seed:              seed,
		}},
		{"RABIT + Extended Simulator (GUI)", rabit.Options{
			Stage:             env.StageTestbed,
			Generation:        rabit.GenModified,
			Multiplex:         rabit.MultiplexTime,
			ExtendedSimulator: true,
			SimulatorGUI:      true,
			Seed:              seed,
		}},
	}
	var out []LatencyResult
	for _, m := range modes {
		res, err := latencyRun(m.name, m.opt, speedup)
		if err != nil {
			return nil, fmt.Errorf("eval: latency %s: %w", m.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// latencyRun measures one configuration of the latency experiment.
func latencyRun(mode string, o rabit.Options, speedup float64) (LatencyResult, error) {
	s, err := rabit.NewTestbed(o)
	if err != nil {
		return LatencyResult{}, err
	}
	defer s.Close()
	s.Env.SetPacing(speedup)
	start := time.Now()
	if err := workflow.RunSteps(s.Session, workflow.Fig5Workflow()); err != nil {
		return LatencyResult{}, fmt.Errorf("workload failed: %w", err)
	}
	total := time.Since(start)
	check, commands := s.Engine.CheckOverhead()
	exec := total - check
	if commands == 0 {
		commands = 1
	}
	res := LatencyResult{
		Mode:            mode,
		Commands:        commands,
		CheckPerCommand: check / time.Duration(commands),
		ExecPerCommand:  exec / time.Duration(commands),
		Validate:        stageLatency(s.Obs, obs.StageValidate),
		Trajectory:      stageLatency(s.Obs, obs.StageTrajectory),
		Compare:         stageLatency(s.Obs, obs.StageCompare),
		SimKept:         s.Obs.Counter(obs.CounterSimBroadphaseKept).Value(),
		SimPruned:       s.Obs.Counter(obs.CounterSimBroadphasePruned).Value(),
	}
	if exec > 0 {
		res.OverheadPct = 100 * float64(check) / float64(exec)
	}
	return res, nil
}

// RenderLatency prints the latency rows with the per-stage breakdown
// (median latency per stage; "—" marks a stage that never ran) and the
// simulator's broadphase pruning ratio.
func RenderLatency(rows []LatencyResult) string {
	out := fmt.Sprintf("%-42s %10s %14s %14s %10s %12s %12s %12s %20s\n",
		"Configuration", "commands", "check/cmd", "exec/cmd", "overhead",
		"validate p50", "traj p50", "compare p50", "pruned/kept (ratio)")
	stage := func(sl StageLatency) string {
		if sl.Count == 0 {
			return "—"
		}
		return sl.P50.String()
	}
	for _, r := range rows {
		pruneCol := "—"
		if r.SimKept+r.SimPruned > 0 {
			pruneCol = fmt.Sprintf("%d/%d (%.0f%%)", r.SimPruned, r.SimKept,
				100*float64(r.SimPruned)/float64(r.SimPruned+r.SimKept))
		}
		out += fmt.Sprintf("%-42s %10d %14s %14s %9.1f%% %12s %12s %12s %20s\n",
			r.Mode, r.Commands, r.CheckPerCommand, r.ExecPerCommand, r.OverheadPct,
			stage(r.Validate), stage(r.Trajectory), stage(r.Compare), pruneCol)
	}
	return out
}
