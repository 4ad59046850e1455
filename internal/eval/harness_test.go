package eval

import (
	"testing"

	rabit "repro"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/workflow"
)

// configsUnderTest enumerates the three engine configurations the paper's
// narrative steps through.
func configsUnderTest() []rabit.Options {
	return []rabit.Options{
		{Generation: rules.GenInitial, Seed: 1},
		{Generation: rules.GenModified, Multiplex: rules.MultiplexTime, Seed: 1},
		{Generation: rules.GenModified, Multiplex: rules.MultiplexTime, ExtendedSimulator: true, Seed: 1},
	}
}

func TestSafeFig5WorkflowProducesNoAlertsAndNoDamage(t *testing.T) {
	for i, o := range configsUnderTest() {
		o.Stage = env.StageTestbed
		s, err := rabit.NewTestbed(o)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if err := workflow.RunSteps(s.Session, workflow.Fig5Workflow()); err != nil {
			t.Fatalf("config %d (%s, sim=%v): safe workflow failed: %v",
				i, o.Generation, o.ExtendedSimulator, err)
		}
		if alerts := s.Engine.Alerts(); len(alerts) != 0 {
			t.Errorf("config %d: false positives: %v", i, alerts)
		}
		if evs := s.Env.World().Events(); len(evs) != 0 {
			t.Errorf("config %d: physical damage in safe workflow: %v", i, evs)
		}
	}
}

func TestSafeFig5WorkflowWithoutRABIT(t *testing.T) {
	s, err := rabit.NewTestbed(rabit.Options{Stage: env.StageTestbed, Unprotected: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := workflow.RunSteps(s.Session, workflow.Fig5Workflow()); err != nil {
		t.Fatalf("safe workflow without RABIT failed: %v", err)
	}
	if evs := s.Env.World().Events(); len(evs) != 0 {
		t.Errorf("physical damage: %v", evs)
	}
	// The vial ended up dosed and back in Ned2's gripper.
	o, ok := s.Env.World().Object("vial_1")
	if !ok || o.SolidMg != 5 {
		t.Errorf("vial solid = %v, want 5 mg", o.SolidMg)
	}
	if o.HeldBy != "ned2" {
		t.Errorf("vial held by %q, want ned2", o.HeldBy)
	}
}

// TestEntryPointsCloseTheirSystems checks that each evaluation entry
// point closes every stack it builds: the process-wide scrape and SLO
// groups hold as many entries afterwards as before, so a long
// `rabiteval -metrics` run does not export dead stacks.
func TestEntryPointsCloseTheirSystems(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Latency", func() error { _, err := Latency(1, 1000); return err }},
		{"RunControlled", func() error { _, err := RunControlled("testbed", env.StageTestbed, 1); return err }},
		{"TableI", func() error { _, err := TableI(1); return err }},
		{"Motion", func() error { _, err := Motion(MotionOptions{Visits: 2, Seed: 1}); return err }},
	} {
		regs, slos := len(obs.DefaultGroup.Snapshots()), len(obs.DefaultGroup.SLOSnapshots())
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := len(obs.DefaultGroup.Snapshots()); got != regs {
			t.Errorf("%s left %d registries behind", tc.name, got-regs)
		}
		if got := len(obs.DefaultGroup.SLOSnapshots()); got != slos {
			t.Errorf("%s left %d SLO registrations behind", tc.name, got-slos)
		}
	}
}
