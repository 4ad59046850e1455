package eval

import (
	"strings"
	"testing"

	rabit "repro"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// TestSolubilityWorkflowOnProduction runs the Fig. 1(b) automated
// solubility experiment end-to-end on the Hein production deck under
// RABIT: no alerts, no damage, and a chemically sensible result.
func TestSolubilityWorkflowOnProduction(t *testing.T) {
	for _, withRABIT := range []bool{true, false} {
		o := rabit.Options{
			Stage:       env.StageProduction,
			Generation:  rules.GenModified,
			Multiplex:   rules.MultiplexNone,
			Unprotected: !withRABIT,
			Seed:        7,
		}
		s, err := rabit.NewHeinProduction(o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := workflow.RunSolubility(s.Session, workflow.DefaultSolubilityParams())
		if err != nil {
			t.Fatalf("withRABIT=%v: solubility failed: %v", withRABIT, err)
		}
		if !res.Dissolved {
			t.Errorf("withRABIT=%v: solid did not dissolve (final %.2f after %d iterations)",
				withRABIT, res.FinalFraction, res.Iterations)
		}
		// 8 mg at 2 mg/mL needs 4 mL of solvent.
		if res.SolventML < 3 || res.SolventML > 8 {
			t.Errorf("withRABIT=%v: solvent use %.1f mL implausible (expect ≈4)", withRABIT, res.SolventML)
		}
		if withRABIT {
			if alerts := s.Engine.Alerts(); len(alerts) != 0 {
				t.Errorf("false positives: %v", alerts)
			}
		}
		if evs := s.Env.World().Events(); len(evs) != 0 {
			t.Errorf("withRABIT=%v: damage during solubility run: %v", withRABIT, evs)
		}
	}
}

// TestSolubilityRejectsOverCapacityDose checks that the script's own
// ad-hoc guard (Fig. 1b lines 10–11) still works alongside RABIT.
func TestSolubilityRejectsOverCapacityDose(t *testing.T) {
	s, err := rabit.NewHeinProduction(rabit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := workflow.DefaultSolubilityParams()
	p.AmountMg = 15
	if _, err := workflow.RunSolubility(s.Session, p); err == nil {
		t.Fatal("over-capacity dose accepted")
	}
}

// TestBerlinguetteSprayWorkflow runs the Section V-B generalization
// study's workflow on the Berlinguette deck: the four device types cover
// all its equipment, the declaratively-configured custom rule loads, and
// the full spray-coating workflow runs cleanly.
func TestBerlinguetteSprayWorkflow(t *testing.T) {
	o := rabit.Options{
		Stage:      env.StageProduction,
		Generation: rules.GenModified,
		Multiplex:  rules.MultiplexTime,
		Seed:       3,
	}
	s, err := rabit.NewBerlinguette(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := workflow.RunSteps(s.Session, workflow.SpraySteps()); err != nil {
		t.Fatalf("spray workflow failed: %v", err)
	}
	if alerts := s.Engine.Alerts(); len(alerts) != 0 {
		t.Errorf("false positives: %v", alerts)
	}
	if evs := s.Env.World().Events(); len(evs) != 0 {
		t.Errorf("damage: %v", evs)
	}
	f, _ := s.Env.World().Fixture("spin_coater")
	if f.Broken {
		t.Error("spin coater damaged")
	}
}

// TestBerlinguetteCustomRuleBlocksEmptySpin checks the lab's declarative
// custom rule: spinning the coater with no film loaded is blocked.
func TestBerlinguetteCustomRuleBlocksEmptySpin(t *testing.T) {
	s, err := rabit.NewBerlinguette(rabit.Options{
		Stage:      env.StageProduction,
		Generation: rules.GenModified,
		Multiplex:  rules.MultiplexTime,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Session.Device("spin_coater").Start(0)
	if err == nil {
		t.Fatal("empty spin accepted")
	}
	alert, ok := core.AsAlert(err)
	if !ok {
		t.Fatalf("want alert, got %v", err)
	}
	found := false
	for _, v := range alert.Violations {
		if v.Rule.ID == "film-loaded" {
			found = true
		}
	}
	if !found {
		t.Errorf("film-loaded rule not among violations: %v", alert.Error())
	}
}

// TestBerlinguetteDeviceCategorization asserts the Section V-B
// categorization: every Berlinguette device maps into the four types.
func TestBerlinguetteDeviceCategorization(t *testing.T) {
	s, err := rabit.NewBerlinguette(rabit.Options{Stage: env.StageProduction, Unprotected: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]rules.DeviceType{
		"ur5e":           rules.TypeRobotArm,
		"n9":             rules.TypeRobotArm,
		"dosing_device":  rules.TypeDosingSystem,
		"solvent_pump":   rules.TypeDosingSystem,
		"decapper":       rules.TypeActionDevice,
		"spin_coater":    rules.TypeActionDevice,
		"spray_hotplate": rules.TypeActionDevice,
		"nozzle_a":       rules.TypeActionDevice,
		"nozzle_b":       rules.TypeActionDevice,
		"precursor_vial": rules.TypeContainer,
		"film_substrate": rules.TypeContainer,
	}
	for id, wantType := range want {
		got, ok := s.Lab.DeviceType(id)
		if !ok || got != wantType {
			t.Errorf("%s: type %v (ok=%v), want %v", id, got, ok, wantType)
		}
	}
}

// TestMalfunctionDetection exercises Fig. 2 lines 13–15: a door whose
// motor is dead acknowledges the open command but never moves; the
// expected-vs-actual comparison raises "Device malfunction!".
func TestMalfunctionDetection(t *testing.T) {
	s, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Env.InjectFault("dosing_device", device.FaultDoorStuck); err != nil {
		t.Fatal(err)
	}
	err = s.Session.Device("dosing_device").SetDoor(true)
	if err == nil {
		t.Fatal("stuck door went unnoticed")
	}
	alert, ok := core.AsAlert(err)
	if !ok {
		t.Fatalf("want alert, got %v", err)
	}
	if alert.Kind != core.AlertMalfunction {
		t.Errorf("alert kind = %v, want malfunction", alert.Kind)
	}
	if len(alert.Mismatches) == 0 ||
		!strings.Contains(alert.Mismatches[0].Key.Variable(), "deviceDoorStatus") {
		t.Errorf("mismatch should name the door status: %v", alert.Mismatches)
	}
	// The experiment is latched stopped.
	if err := s.Session.Arm("viperx").GoHome(); err == nil {
		t.Error("engine should refuse commands after the stop")
	}
}

// TestActionStuckMalfunction covers the second fault class: a device that
// acknowledges start_action but never runs. The dosing device needs no
// container for a (pointless but valid) empty run, so a single command
// exposes the fault.
func TestActionStuckMalfunction(t *testing.T) {
	s, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Env.InjectFault("dosing_device", device.FaultActionStuck); err != nil {
		t.Fatal(err)
	}
	err = s.Session.Device("dosing_device").Start(0)
	if err == nil {
		t.Fatal("stuck action went unnoticed")
	}
	alert, ok := core.AsAlert(err)
	if !ok || alert.Kind != core.AlertMalfunction {
		t.Fatalf("want malfunction alert, got %v", err)
	}
	if len(alert.Mismatches) == 0 ||
		!strings.Contains(alert.Mismatches[0].Key.Variable(), "deviceRunning") {
		t.Errorf("mismatch should name the run state: %v", alert.Mismatches)
	}
}

// TestScreeningWorkflowOnProduction runs the crystallization-screening
// workflow end-to-end on the Hein production deck: the full device roster
// including a *safe* centrifugation (capped vial with solid and liquid,
// rotor aligned) under the Table IV custom rules, with no alerts and no
// damage.
func TestScreeningWorkflowOnProduction(t *testing.T) {
	s, err := rabit.NewHeinProduction(rabit.Options{
		Stage:      env.StageProduction,
		Generation: rules.GenModified,
		Multiplex:  rules.MultiplexNone,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workflow.RunSteps(s.Session, workflow.ScreeningSteps()); err != nil {
		t.Fatalf("screening workflow failed: %v", err)
	}
	if alerts := s.Engine.Alerts(); len(alerts) != 0 {
		t.Errorf("false positives: %v", alerts)
	}
	if evs := s.Env.World().Events(); len(evs) != 0 {
		t.Errorf("damage: %v", evs)
	}
	w := s.Env.World()
	o, _ := w.Object("vial_1")
	if o.At != "grid_NW" || !o.Capped || o.SolidMg != 6 || o.LiquidML != 3 {
		t.Errorf("vial end state wrong: %+v", o)
	}
	cf, _ := w.Fixture("centrifuge")
	if cf.Broken {
		t.Error("centrifuge damaged by a safe spin")
	}
}

// TestScreeningBlockedWithoutCap: deleting the capping step makes the
// centrifuge load violate custom rule 4 — the screening workflow is a
// live consumer of the Table IV discipline.
func TestScreeningBlockedWithoutCap(t *testing.T) {
	s, err := rabit.NewHeinProduction(rabit.Options{
		Stage:      env.StageProduction,
		Generation: rules.GenModified,
		Multiplex:  rules.MultiplexNone,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := workflow.DeleteStep(workflow.ScreeningSteps(), "cap")
	err = workflow.RunSteps(s.Session, steps)
	if err == nil {
		t.Fatal("uncapped centrifugation accepted")
	}
	if !strings.Contains(err.Error(), "hein-4") {
		t.Errorf("alert should cite custom rule 4: %v", err)
	}
}

// TestTraceReplayOfflineChecking captures the offline-checking use case:
// a trace recorded on an unprotected deck is replayed under RABIT. The
// safe Fig. 5 trace replays cleanly; a buggy trace is stopped at the
// recorded unsafe command before it can re-execute.
func TestTraceReplayOfflineChecking(t *testing.T) {
	// Record the safe workflow without RABIT.
	rec, err := rabit.NewTestbed(rabit.Options{Stage: env.StageTestbed, Unprotected: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := workflow.RunSteps(rec.Session, workflow.Fig5Workflow()); err != nil {
		t.Fatal(err)
	}
	safeTrace := rec.Interceptor.Records()

	// Replay under the modified RABIT on a fresh deck: clean.
	chk, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Replay(chk.Interceptor, safeTrace); err != nil {
		t.Fatalf("safe trace replay flagged: %v", err)
	}
	if len(chk.Engine.Alerts()) != 0 {
		t.Errorf("false positives on replay: %v", chk.Engine.Alerts())
	}

	// Record Bug A's trace (the crash truncates it), replay protected:
	// RABIT stops at the recorded door-entry command.
	buggyRec, err := rabit.NewTestbed(rabit.Options{Stage: env.StageTestbed, Unprotected: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := bugs.ByID(1)
	_ = workflow.RunSteps(buggyRec.Session, b.Mutate(buggyRec.Session))
	buggyTrace := buggyRec.Interceptor.Records()

	chk2, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = trace.Replay(chk2.Interceptor, buggyTrace)
	if err == nil {
		t.Fatal("buggy trace replay should be stopped")
	}
	if !strings.Contains(err.Error(), "general-1") {
		t.Errorf("replay alert should cite rule 1: %v", err)
	}
	if evs := chk2.Env.World().Events(); len(evs) != 0 {
		t.Errorf("replay under RABIT caused damage: %v", evs)
	}
}

// TestFootnoteOneScenario reproduces the paper's footnote 1 on the
// production deck: "there have been instances of the door breaking
// because the programmer forgot to call open_door()" inside
// doseSolid(amount). Deleting the door-open step of the screening
// workflow trips rule 1 before the UR3e touches the glass; unprotected,
// the door breaks exactly as the footnote recounts.
func TestFootnoteOneScenario(t *testing.T) {
	steps := workflow.DeleteStep(workflow.ScreeningSteps(), "open-dd")

	s, err := rabit.NewHeinProduction(rabit.Options{
		Stage:      env.StageProduction,
		Generation: rules.GenInitial,
		Multiplex:  rules.MultiplexNone,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = workflow.RunSteps(s.Session, steps)
	if err == nil {
		t.Fatal("forgotten open_door accepted")
	}
	if !strings.Contains(err.Error(), "general-1") {
		t.Errorf("alert should cite rule 1: %v", err)
	}
	if evs := s.Env.World().Events(); len(evs) != 0 {
		t.Errorf("protected run still damaged the deck: %v", evs)
	}

	// The unprotected counterfactual: the glass door breaks.
	u, err := rabit.NewHeinProduction(rabit.Options{Stage: env.StageProduction, Unprotected: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_ = workflow.RunSteps(u.Session, workflow.DeleteStep(workflow.ScreeningSteps(), "open-dd"))
	f, _ := u.Env.World().Fixture("dosing_device")
	if !f.Broken {
		t.Error("the footnote's broken door did not reproduce")
	}
}
