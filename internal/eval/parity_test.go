package eval

import (
	"fmt"
	"reflect"
	"testing"

	rabit "repro"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/workflow"
)

// alertSignature reduces an engine's alert history to a comparable
// verdict: kind, violated rule IDs, and mismatched state keys per alert.
func alertSignature(alerts []core.Alert) []string {
	var sig []string
	for _, a := range alerts {
		line := a.Kind.String()
		for _, v := range a.Violations {
			line += " " + v.Rule.ID
		}
		for _, m := range a.Mismatches {
			line += " " + string(m.Key)
		}
		sig = append(sig, line)
	}
	return sig
}

// runControlledParity replays one controlled scenario under one pipeline,
// mirroring RunControlled's body, and returns the verdict.
func runControlledParity(sc ControlledScenario, serial bool) ([]string, state.Snapshot, error) {
	s, err := rabit.NewTestbed(rabit.Options{
		Stage:          env.StageTestbed,
		Generation:     rules.GenInitial,
		Multiplex:      rules.MultiplexNone,
		SerialPipeline: serial,
		Seed:           7,
	})
	if err != nil {
		return nil, nil, err
	}
	if sc.Prepare != nil {
		if err := sc.Prepare(s); err != nil {
			return nil, nil, err
		}
		s.Engine.Start()
	}
	arm := s.Lab.ArmIDs()[0]
	for _, other := range s.Lab.ArmIDs()[1:] {
		if err := s.Session.Arm(other).GoSleep(); err != nil {
			return nil, nil, err
		}
	}
	_ = sc.Run(s.Session, arm) // the error is the alert
	return alertSignature(s.Engine.Alerts()), s.Engine.Model(), nil
}

// TestControlledScenariosParity is the sequential-vs-sharded property
// test over the Tables III/IV scenarios: with sharding enabled the
// engine must raise the same alerts, cite the same rules, and converge
// to the same model state as the seed's single-lock pipeline.
func TestControlledScenariosParity(t *testing.T) {
	for _, sc := range ControlledScenarios() {
		sc := sc
		t.Run(sc.RuleID, func(t *testing.T) {
			serialSig, serialModel, err := runControlledParity(sc, true)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			shardSig, shardModel, err := runControlledParity(sc, false)
			if err != nil {
				t.Fatalf("sharded run: %v", err)
			}
			if !reflect.DeepEqual(serialSig, shardSig) {
				t.Errorf("alert divergence:\nserial:  %v\nsharded: %v", serialSig, shardSig)
			}
			if !reflect.DeepEqual(serialModel, shardModel) {
				t.Errorf("final model diverges:\nserial:  %v\nsharded: %v", serialModel, shardModel)
			}
			if len(serialSig) == 0 {
				t.Error("scenario raised no alert at all — parity is vacuous")
			}
		})
	}
}

// runBugParity replays one injected bug under one pipeline and returns
// the verdict (alert signature plus final model).
func runBugParity(b bugs.Bug, o rabit.Options) ([]string, state.Snapshot, error) {
	s, err := rabit.NewTestbed(o)
	if err != nil {
		return nil, nil, err
	}
	steps := b.Mutate(s.Session)
	_ = workflow.RunSteps(s.Session, steps) // the error is the alert/crash itself
	return alertSignature(s.Engine.Alerts()), s.Engine.Model(), nil
}

// TestBugSuiteParity replays all sixteen injected bugs under the
// modified configuration (with and without the Extended Simulator, so
// the trajectory-validation stage is covered too) and demands identical
// verdicts from the serial and sharded pipelines.
func TestBugSuiteParity(t *testing.T) {
	configs := []struct {
		name    string
		withSim bool
	}{
		{"modified", false},
		{"modified+sim", true},
	}
	for _, cfg := range configs {
		for _, b := range bugs.Suite() {
			b := b
			cfg := cfg
			t.Run(fmt.Sprintf("%s/bug%02d-%s", cfg.name, b.ID, b.Slug), func(t *testing.T) {
				base := rabit.Options{
					Stage:             env.StageTestbed,
					Generation:        rules.GenModified,
					Multiplex:         rules.MultiplexTime,
					ExtendedSimulator: cfg.withSim,
					Seed:              1,
				}
				serial := base
				serial.SerialPipeline = true
				serialSig, serialModel, err := runBugParity(b, serial)
				if err != nil {
					t.Fatalf("serial run: %v", err)
				}
				shardSig, shardModel, err := runBugParity(b, base)
				if err != nil {
					t.Fatalf("sharded run: %v", err)
				}
				if !reflect.DeepEqual(serialSig, shardSig) {
					t.Errorf("alert divergence:\nserial:  %v\nsharded: %v", serialSig, shardSig)
				}
				if !reflect.DeepEqual(serialModel, shardModel) {
					t.Errorf("final model diverges:\nserial:  %v\nsharded: %v", serialModel, shardModel)
				}
			})
		}
	}
}
