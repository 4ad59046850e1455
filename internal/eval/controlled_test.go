package eval

import (
	"testing"

	rabit "repro"
	"repro/internal/env"
	"repro/internal/rules"
)

// TestControlledScenariosOnTestbed reproduces the controlled experiments
// of Section IV on the testbed: every rule in Tables III and IV is
// deliberately violated once, and RABIT detects all of them with the
// targeted rule among the violations.
func TestControlledScenariosOnTestbed(t *testing.T) {
	results, err := RunControlled("testbed", env.StageTestbed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 15 {
		t.Fatalf("got %d scenarios, want 15 (11 general + 4 custom)", len(results))
	}
	for _, r := range results {
		if !r.Detected {
			t.Errorf("scenario %s (%s) not detected", r.Scenario.RuleID, r.Scenario.Name)
			continue
		}
		if !r.RuleHit {
			t.Errorf("scenario %s: alert raised but rule not among violations: %v",
				r.Scenario.RuleID, r.Alert.Error())
		}
	}
}

// TestControlledScenariosOnProduction runs the same battery on the Hein
// production deck under the simulator stage (the paper exercised both
// platforms).
func TestControlledScenariosOnProduction(t *testing.T) {
	results, err := RunControlled("production", env.StageSimulator, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Detected || !r.RuleHit {
			detail := "no alert"
			if r.Alert != nil {
				detail = r.Alert.Error()
			}
			t.Errorf("scenario %s (%s): detected=%v ruleHit=%v (%s)",
				r.Scenario.RuleID, r.Scenario.Name, r.Detected, r.RuleHit, detail)
		}
	}
}

// runControlledWithSim replays the controlled battery on the testbed with
// the Extended Simulator attached, optionally with its broadphase pruning
// disabled, and returns a per-scenario summary of what was alerted.
func runControlledWithSim(t *testing.T, broadphase bool) []string {
	t.Helper()
	var out []string
	for _, sc := range ControlledScenarios() {
		s, err := rabit.NewTestbed(rabit.Options{
			Stage:             env.StageTestbed,
			Generation:        rules.GenInitial,
			Multiplex:         rules.MultiplexNone,
			ExtendedSimulator: true, Seed: 1,
		})
		if err != nil {
			t.Fatalf("controlled %s: %v", sc.RuleID, err)
		}
		s.Simulator.SetBroadphase(broadphase)
		if sc.Prepare != nil {
			if err := sc.Prepare(s); err != nil {
				t.Fatalf("controlled %s prepare: %v", sc.RuleID, err)
			}
			s.Engine.Start()
		}
		arm := s.Lab.ArmIDs()[0]
		for _, other := range s.Lab.ArmIDs()[1:] {
			if err := s.Session.Arm(other).GoSleep(); err != nil {
				t.Fatalf("controlled %s quiesce: %v", sc.RuleID, err)
			}
		}
		_ = sc.Run(s.Session, arm)
		summary := sc.RuleID + ": no alert"
		if alerts := s.Engine.Alerts(); len(alerts) > 0 {
			summary = sc.RuleID + ": " + alerts[0].Error()
		}
		out = append(out, summary)
	}
	return out
}

// TestControlledBroadphaseEquivalence asserts the broadphase-pruned
// simulator changes no outcome of the Table III/IV controlled battery:
// every scenario raises exactly the same alert text with pruning on and
// off.
func TestControlledBroadphaseEquivalence(t *testing.T) {
	pruned := runControlledWithSim(t, true)
	full := runControlledWithSim(t, false)
	if len(pruned) != len(full) {
		t.Fatalf("scenario counts differ: %d vs %d", len(pruned), len(full))
	}
	for i := range pruned {
		if pruned[i] != full[i] {
			t.Errorf("scenario %d diverged:\n  broadphase on:  %s\n  broadphase off: %s",
				i, pruned[i], full[i])
		}
	}
}
