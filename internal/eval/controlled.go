package eval

import (
	"fmt"
	"time"

	rabit "repro"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/workflow"
)

// ControlledScenario is one deliberately unsafe scenario designed to
// trigger exactly one rule of Tables III/IV — the controlled experiments
// of Section IV ("we deliberately executed unsafe scenarios designed to
// trigger each rule in the rulebase").
type ControlledScenario struct {
	// RuleID is the rule the scenario targets (e.g. "general-3").
	RuleID string
	// Table is "III" or "IV"; Number is the row.
	Table  string
	Number int
	// Name summarises the scenario.
	Name string
	// Prepare pokes physical pre-conditions into the world before the
	// engine starts (e.g. the centrifuge's red dot turned away).
	Prepare func(s *rabit.System) error
	// Run executes the unsafe script; it is expected to be stopped by an
	// alert.
	Run func(s *workflow.Session, armID string) error
}

// ControlledScenarios returns one scenario per rule in Tables III and IV.
// The scripts are written against the shared location vocabulary of the
// Hein decks (grid_NW, dd_*, hp_*, cf_*), so they run on the production
// deck and the testbed alike.
func ControlledScenarios() []ControlledScenario {
	return []ControlledScenario{
		{
			RuleID: "general-1", Table: "III", Number: 1,
			Name: "move into the dosing device while its door is closed",
			Run: func(s *workflow.Session, arm string) error {
				return s.Arm(arm).GoToLocation("dd_safe_height")
			},
		},
		{
			RuleID: "general-2", Table: "III", Number: 2,
			Name: "close the door while the arm is inside the device",
			Run: func(s *workflow.Session, arm string) error {
				dd := s.Device("dosing_device")
				if err := dd.SetDoor(true); err != nil {
					return err
				}
				a := s.Arm(arm)
				if err := a.GoToLocation("dd_approach"); err != nil {
					return err
				}
				if err := a.GoToLocation("dd_safe_height"); err != nil {
					return err
				}
				return dd.SetDoor(false)
			},
		},
		{
			RuleID: "general-3", Table: "III", Number: 3,
			Name: "move the arm straight into the grid (the paper's simulator scenario)",
			Run: func(s *workflow.Session, arm string) error {
				return s.Arm(arm).MovePose(vec(0.35, 0.25, 0.05))
			},
		},
		{
			RuleID: "general-4", Table: "III", Number: 4,
			Name: "pick a second object while already holding one",
			Run: func(s *workflow.Session, arm string) error {
				a := s.Arm(arm)
				if err := a.PickUpObject("grid_NW_safe", "grid_NW", "vial_1"); err != nil {
					return err
				}
				return a.CloseGripper()
			},
		},
		{
			RuleID: "general-5", Table: "III", Number: 5,
			Name: "start the hotplate with no container on it",
			Run: func(s *workflow.Session, arm string) error {
				return s.Device("hotplate").Start(10 * time.Second)
			},
		},
		{
			RuleID: "general-6", Table: "III", Number: 6,
			Name: "start the hotplate with an empty container on it",
			Run: func(s *workflow.Session, arm string) error {
				a := s.Arm(arm)
				if err := a.PickUpObject("grid_NW_safe", "grid_NW", "vial_1"); err != nil {
					return err
				}
				if err := a.GoToLocation("hp_safe"); err != nil {
					return err
				}
				if err := a.PlaceObject("hp_safe", "hp_place", "vial_1"); err != nil {
					return err
				}
				return s.Device("hotplate").Start(10 * time.Second)
			},
		},
		{
			RuleID: "general-7", Table: "III", Number: 7,
			Name: "transfer solvent into a container whose stopper is on",
			Run: func(s *workflow.Session, arm string) error {
				if err := s.Vial("vial_1").Cap(); err != nil {
					return err
				}
				return s.Device("pump").Transfer("beaker", "vial_1", 5)
			},
		},
		{
			RuleID: "general-8", Table: "III", Number: 8,
			Name: "transfer from an empty delivering container",
			Run: func(s *workflow.Session, arm string) error {
				return s.Device("pump").Transfer("vial_2", "vial_1", 2)
			},
		},
		{
			RuleID: "general-9", Table: "III", Number: 9,
			Name: "start dosing while the device door is open",
			Run: func(s *workflow.Session, arm string) error {
				dd := s.Device("dosing_device")
				if err := dd.SetDoor(true); err != nil {
					return err
				}
				return dd.RunAction(3*time.Second, 5)
			},
		},
		{
			RuleID: "general-10", Table: "III", Number: 10,
			Name: "open the door while the device is running",
			Run: func(s *workflow.Session, arm string) error {
				dd := s.Device("dosing_device")
				if err := dd.Start(3 * time.Second); err != nil {
					return err
				}
				return dd.SetDoor(true)
			},
		},
		{
			RuleID: "general-11", Table: "III", Number: 11,
			Name: "set the hotplate above its temperature threshold",
			Run: func(s *workflow.Session, arm string) error {
				return s.Device("hotplate").SetValue(400)
			},
		},
		{
			RuleID: "hein-1", Table: "IV", Number: 1,
			Name: "add liquid to a container that holds no solid",
			Run: func(s *workflow.Session, arm string) error {
				return s.Device("pump").DoseLiquid("vial_1", 2)
			},
		},
		{
			RuleID: "hein-2", Table: "IV", Number: 2,
			Name: "place a container without both solid and liquid into the centrifuge",
			Run: func(s *workflow.Session, arm string) error {
				if err := s.Vial("vial_1").Cap(); err != nil {
					return err
				}
				if err := s.Device("centrifuge").SetDoor(true); err != nil {
					return err
				}
				a := s.Arm(arm)
				if err := a.PickUpObject("grid_NW_safe", "grid_NW", "vial_1"); err != nil {
					return err
				}
				return a.PlaceObject("cf_safe", "cf_slot", "vial_1")
			},
		},
		{
			RuleID: "hein-3", Table: "IV", Number: 3,
			Name: "place a container into the centrifuge while the red dot faces away",
			Prepare: func(s *rabit.System) error {
				f, ok := s.Env.World().Fixture("centrifuge")
				if !ok {
					return fmt.Errorf("no centrifuge on this deck")
				}
				f.RedDotNorth = false
				return nil
			},
			Run: func(s *workflow.Session, arm string) error {
				if err := s.Device("centrifuge").SetDoor(true); err != nil {
					return err
				}
				a := s.Arm(arm)
				if err := a.PickUpObject("grid_NE_safe", "grid_NE", "vial_3"); err != nil {
					return err
				}
				return a.PlaceObject("cf_safe", "cf_slot", "vial_3")
			},
		},
		{
			RuleID: "hein-4", Table: "IV", Number: 4,
			Name: "place an uncapped container into the centrifuge",
			Run: func(s *workflow.Session, arm string) error {
				if err := s.Vial("vial_3").Decap(); err != nil {
					return err
				}
				if err := s.Device("centrifuge").SetDoor(true); err != nil {
					return err
				}
				a := s.Arm(arm)
				if err := a.PickUpObject("grid_NE_safe", "grid_NE", "vial_3"); err != nil {
					return err
				}
				return a.PlaceObject("cf_safe", "cf_slot", "vial_3")
			},
		},
	}
}

// ControlledResult is the outcome of one controlled scenario.
type ControlledResult struct {
	Scenario ControlledScenario
	// Detected reports whether an alert was raised at all.
	Detected bool
	// RuleHit reports whether the targeted rule is among the violations.
	RuleHit bool
	// Alert is the first alert.
	Alert *core.Alert
}

// RunControlled executes every controlled scenario on the given deck and
// stage, each in a fresh environment.
func RunControlled(deck string, stage env.Stage, seed int64) ([]ControlledResult, error) {
	build := rabit.NewTestbed
	if deck == "production" {
		build = rabit.NewHeinProduction
	}
	o := rabit.Options{
		Stage:      stage,
		Generation: rabit.GenInitial,
		Multiplex:  rabit.MultiplexNone,
		Seed:       seed,
	}
	var out []ControlledResult
	for _, sc := range ControlledScenarios() {
		res, err := runControlledOnce(sc, build, o)
		if err != nil {
			return nil, fmt.Errorf("eval: controlled %s: %w", sc.RuleID, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// runControlledOnce runs one scenario on a fresh stack.
func runControlledOnce(sc ControlledScenario, build func(rabit.Options) (*rabit.System, error), o rabit.Options) (ControlledResult, error) {
	res := ControlledResult{Scenario: sc}
	s, err := build(o)
	if err != nil {
		return res, err
	}
	defer s.Close()
	if sc.Prepare != nil {
		if err := sc.Prepare(s); err != nil {
			return res, fmt.Errorf("prepare: %w", err)
		}
		// Re-acquire S_initial so the engine observes the prepared
		// state (Fig. 2 lines 1–3).
		s.Engine.Start()
	}
	// For multi-arm decks, quiesce the second arm first so the
	// scenario isn't polluted by unrelated concerns.
	arm := s.Lab.ArmIDs()[0]
	for _, other := range s.Lab.ArmIDs()[1:] {
		if err := s.Session.Arm(other).GoSleep(); err != nil {
			return res, fmt.Errorf("quiesce: %w", err)
		}
	}
	_ = sc.Run(s.Session, arm) // the error is the alert
	if alerts := s.Engine.Alerts(); len(alerts) > 0 {
		res.Detected = true
		res.Alert = &alerts[0]
		for _, v := range alerts[0].Violations {
			if v.Rule.ID == sc.RuleID {
				res.RuleHit = true
			}
		}
	}
	return res, nil
}

// vec is a terse constructor for scenario scripts.
func vec(x, y, z float64) geom.Vec3 { return geom.V(x, y, z) }
