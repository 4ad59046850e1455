// Package eval is the evaluation harness: it reproduces every table and
// figure of the paper's evaluation (Tables I, III, IV, V; the Fig. 5/6
// bug study; the Section II-C latency measurements; the Section IV
// detection-rate progression) by running the full RABIT stack over the
// simulated stages. Every stack is built with the public facade
// (rabit.New and its deck constructors) and closed once its numbers are
// read, so a long evaluation leaves no dead registrations behind.
package eval

import (
	"fmt"
	"math"
	"time"

	rabit "repro"
	"repro/internal/bugs"
	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/workflow"
)

// TableIRow is the measured version of one column of the paper's Table I:
// the stage's capability profile, quantified.
type TableIRow struct {
	Stage env.Stage
	// CommandsPerSecond is the exploration speed: workload commands per
	// second of stage time (wall-clock compute for the simulator,
	// simulated physical time for the physical stages).
	CommandsPerSecond float64
	// PrecisionErrorM is the mean positioning error of the stage's arms
	// across the workload (modelling error + repeatability).
	PrecisionErrorM float64
	// MeasurementErrorAbs is the mean absolute error of solubility
	// readings against ground truth.
	MeasurementErrorAbs float64
	// DamageExposure is the stage-scaled cost of running the unsafe bug
	// suite unprotected — "risk of damage".
	DamageExposure float64
}

// Grade buckets a measured value into the paper's High/Medium/Low scale
// given the three stages' values (rank order defines the grade).
func gradeOf(v float64, all [3]float64, higherIsMore bool) string {
	rank := 0
	for _, o := range all {
		if (higherIsMore && v > o) || (!higherIsMore && v < o) {
			rank++
		}
	}
	switch rank {
	case 2:
		return "High"
	case 1:
		return "Medium"
	default:
		return "Low"
	}
}

// TableI runs the Table I measurement: a fixed safe workload on each
// stage (speed, precision, accuracy) plus the unprotected bug suite
// (damage exposure).
func TableI(seed int64) ([]TableIRow, error) {
	stages := []env.Stage{env.StageSimulator, env.StageTestbed, env.StageProduction}
	rows := make([]TableIRow, 0, 3)
	for _, stage := range stages {
		row, err := measureStage(stage, seed)
		if err != nil {
			return nil, fmt.Errorf("eval: table I, %v: %w", stage, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// stageSetup builds the deck each stage actually consists of: the
// simulator mirrors the production deck virtually; the testbed is the
// low-fidelity two-arm deck; production is the real UR3e deck.
func stageSetup(stage env.Stage, seed int64) (*rabit.System, error) {
	o := rabit.Options{Stage: stage, Unprotected: true, Seed: seed}
	if stage == env.StageTestbed {
		return rabit.NewTestbed(o)
	}
	return rabit.NewHeinProduction(o)
}

// stageWorkload runs the stage's representative experiment: the automated
// solubility run on the (virtual or real) production deck, the Fig. 5
// workflow on the testbed.
func stageWorkload(stage env.Stage, s *rabit.System) error {
	if stage == env.StageTestbed {
		return workflow.RunSteps(s.Session, workflow.Fig5Workflow())
	}
	_, err := workflow.RunSolubility(s.Session, workflow.DefaultSolubilityParams())
	return err
}

// measureStage gathers one stage's Table I numbers.
func measureStage(stage env.Stage, seed int64) (TableIRow, error) {
	row := TableIRow{Stage: stage}

	s, err := stageSetup(stage, seed)
	if err != nil {
		return row, err
	}
	defer s.Close()
	wallStart := time.Now()
	if err := stageWorkload(stage, s); err != nil {
		return row, fmt.Errorf("safe workload failed: %w", err)
	}
	wall := time.Since(wallStart)
	commands := s.Interceptor.Len()

	var stageSeconds float64
	if stage == env.StageSimulator {
		// The simulator has no physical time: exploration runs at
		// compute speed.
		stageSeconds = wall.Seconds()
	} else {
		stageSeconds = s.Env.Now().Seconds()
	}
	if stageSeconds > 0 {
		row.CommandsPerSecond = float64(commands) / stageSeconds
	}

	// Precision: on a fresh deck, command probe points over open deck
	// space and measure the achieved TCP error (stage model error + arm
	// repeatability + planner tolerance).
	probe, err := stageSetup(stage, seed+11)
	if err != nil {
		return row, err
	}
	defer probe.Close()
	probePoints := []geom.Vec3{
		{X: 0.25, Y: 0.05, Z: 0.30}, {X: 0.30, Y: -0.05, Z: 0.25},
		{X: 0.35, Y: 0.05, Z: 0.28}, {X: 0.28, Y: 0.10, Z: 0.32},
	}
	var errSum float64
	var errN int
	armID := probe.Lab.ArmIDs()[0]
	arm, _ := probe.Env.World().Arm(armID)
	for _, p := range probePoints {
		if err := probe.Session.Arm(armID).MovePose(p); err != nil {
			return row, fmt.Errorf("precision probe %v: %w", p, err)
		}
		errSum += arm.Precision()
		errN++
	}
	if errN > 0 {
		row.PrecisionErrorM = errSum / float64(errN)
	}
	// The simulator's low modelling fidelity floors its error at the
	// configured model error even though its virtual arm is noiseless.
	if stage == env.StageSimulator && row.PrecisionErrorM < probe.Env.Params().ModelError {
		row.PrecisionErrorM = probe.Env.Params().ModelError
	}

	// Accuracy: repeated solubility measurements of the pre-loaded vial
	// (partially dissolved: truth is fractional) vs ground truth.
	truth, err := probe.Env.World().MeasureSolubility("vial_3")
	if err != nil {
		return row, err
	}
	var devSum float64
	const n = 40
	for i := 0; i < n; i++ {
		m, err := probe.Env.MeasureSolubility("vial_3")
		if err != nil {
			return row, err
		}
		devSum += math.Abs(m - truth)
	}
	row.MeasurementErrorAbs = devSum / n

	// Damage exposure: the unprotected bug suite's scaled damage cost.
	row.DamageExposure = unprotectedExposure(stage, seed)
	return row, nil
}

// unprotectedExposure replays a damaging subset of the bug suite with no
// RABIT attached and totals the stage-scaled damage.
func unprotectedExposure(stage env.Stage, seed int64) float64 {
	var total float64
	for _, id := range []int{1, 5, 7, 13} { // door smash, overheat, arm-arm, glassware
		b, ok := bugs.ByID(id)
		if !ok {
			continue
		}
		s, err := rabit.NewTestbed(rabit.Options{Stage: stage, Unprotected: true, Seed: seed})
		if err != nil {
			continue
		}
		_ = workflow.RunSteps(s.Session, b.Mutate(s.Session))
		total += s.Env.DamageCost()
		s.Close()
	}
	return total
}

// RenderTableI prints the measured Table I in the paper's shape, with the
// measured values alongside the High/Medium/Low grades.
func RenderTableI(rows []TableIRow) string {
	var speed, prec, acc, risk [3]float64
	for i, r := range rows {
		speed[i] = r.CommandsPerSecond
		prec[i] = r.PrecisionErrorM
		acc[i] = r.MeasurementErrorAbs
		risk[i] = r.DamageExposure
	}
	out := fmt.Sprintf("%-34s %-22s %-22s %-22s\n", "Capabilities",
		rows[0].Stage, rows[1].Stage, rows[2].Stage)
	line := func(label string, vals [3]float64, higherIsMore bool, unit string, mul float64) string {
		s := fmt.Sprintf("%-34s", label)
		for _, v := range vals {
			s += fmt.Sprintf(" %-22s", fmt.Sprintf("%s (%.3g%s)", gradeOf(v, vals, higherIsMore), v*mul, unit))
		}
		return s + "\n"
	}
	out += line("Speed of exploration / testing", speed, true, " cmd/s", 1)
	// Precision/quality and accuracy: lower error = higher grade.
	out += line("Device precision and quality", prec, false, " mm err", 1000)
	out += line("Accuracy of results", acc, false, " abs err", 1)
	out += line("Risk of damage", risk, true, " $", 1)
	return out
}
