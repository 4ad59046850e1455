package eval

import (
	"strings"
	"testing"

	rabit "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/labs"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/world"
)

// multiDoorSpec adds a pass-through capping station with two named doors
// ("west" toward ViperX, "east" toward Ned2) — the Section V-C extension:
// "devices might have multiple doors, for instance, for two robot arms to
// approach the device simultaneously".
func multiDoorSpec() *config.LabSpec {
	spec := labs.TestbedSpec()
	spec.Devices = append(spec.Devices, config.DeviceSpec{
		ID: "pass_through", Type: "action_device", Kind: "decapper", ClassName: "DecapperDriver",
		Doors: []config.NamedDoorSpec{
			{Name: "west", Side: "x-"},
			{Name: "east", Side: "x+"},
		},
		Cuboid:   config.BoxSpec{Min: config.Vec{X: 0.33, Y: -0.22, Z: 0}, Max: config.Vec{X: 0.51, Y: -0.02, Z: 0.30}},
		Interior: &config.BoxSpec{Min: config.Vec{X: 0.36, Y: -0.19, Z: 0.03}, Max: config.Vec{X: 0.48, Y: -0.05, Z: 0.27}},
	})
	spec.Locations = append(spec.Locations,
		config.LocationSpec{Name: "pt_west_approach", Owner: "pass_through",
			DeckPos: config.Vec{X: 0.26, Y: -0.12, Z: 0.19}},
		config.LocationSpec{Name: "pt_slot_w", Owner: "pass_through", Inside: true, Door: "west",
			DeckPos: config.Vec{X: 0.40, Y: -0.12, Z: 0.12}},
		config.LocationSpec{Name: "pt_slot_w_safe", Owner: "pass_through", Inside: true, Door: "west",
			DeckPos: config.Vec{X: 0.40, Y: -0.12, Z: 0.20}},
		config.LocationSpec{Name: "pt_slot_e", Owner: "pass_through", Inside: true, Door: "east",
			DeckPos: config.Vec{X: 0.44, Y: -0.12, Z: 0.12}},
	)
	return spec
}

func multiDoorSetup(t *testing.T) *rabit.System {
	t.Helper()
	s, err := rabit.New(multiDoorSpec(), rabit.Options{
		Stage:      env.StageTestbed,
		Generation: rules.GenModified,
		Multiplex:  rules.MultiplexTime,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("ned2").GoSleep(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMultiDoorConfigAndModel(t *testing.T) {
	s := multiDoorSetup(t)
	doors := s.Lab.DeviceDoors("pass_through")
	if len(doors) != 2 || doors[0] != "west" || doors[1] != "east" {
		t.Fatalf("doors = %v", doors)
	}
	if !s.Lab.DeviceHasDoor("pass_through") {
		t.Fatal("multi-door device should report having doors")
	}
	if got := s.Lab.LocationDoor("pt_slot_w"); got != "west" {
		t.Errorf("pt_slot_w door = %q", got)
	}
	// Both panel states are observable, independently.
	st := s.Env.FetchState()
	for _, door := range doors {
		if _, ok := st.Get(state.DoorStatusOf("pass_through", door)); !ok {
			t.Errorf("door %q not observable", door)
		}
	}
}

func TestMultiDoorRuleOneIsPerPanel(t *testing.T) {
	s := multiDoorSetup(t)
	// Open the EAST door only; approach through the WEST side. Rule 1
	// must look at the panel serving the target location, not "any door
	// open".
	if err := s.Session.Device("pass_through").SetNamedDoor("east", true); err != nil {
		t.Fatal(err)
	}
	err := s.Session.Arm("viperx").GoToLocation("pt_slot_w")
	if err == nil {
		t.Fatal("entry through the closed west door accepted")
	}
	if !strings.Contains(err.Error(), `door "west"`) {
		t.Errorf("alert should name the west panel: %v", err)
	}

	// Opening the west panel admits the arm.
	s.Engine.Start()
	if err := s.Session.Device("pass_through").SetNamedDoor("west", true); err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("viperx").GoToLocation("pt_west_approach"); err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("viperx").GoToLocation("pt_slot_w"); err != nil {
		t.Fatalf("entry through the open west door blocked: %v", err)
	}
	if evs := s.Env.World().Events(); len(evs) != 0 {
		t.Fatalf("physical damage during legal entry: %v", evs)
	}
}

func TestMultiDoorRuleTwoBlocksAnyPanel(t *testing.T) {
	s := multiDoorSetup(t)
	dev := s.Session.Device("pass_through")
	if err := dev.SetNamedDoor("west", true); err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("viperx").GoToLocation("pt_west_approach"); err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("viperx").GoToLocation("pt_slot_w"); err != nil {
		t.Fatal(err)
	}
	// With the arm inside, closing either panel is refused.
	err := dev.SetNamedDoor("west", false)
	if err == nil || !strings.Contains(err.Error(), "general-2") {
		t.Errorf("closing the west door on the arm should violate rule 2: %v", err)
	}
}

func TestMultiDoorRuleNineRequiresAllClosed(t *testing.T) {
	s := multiDoorSetup(t)
	dev := s.Session.Device("pass_through")
	if err := dev.SetNamedDoor("east", true); err != nil {
		t.Fatal(err)
	}
	err := dev.Start(0)
	if err == nil {
		t.Fatal("action started with the east door open")
	}
	alert, ok := core.AsAlert(err)
	if !ok {
		t.Fatalf("want alert, got %v", err)
	}
	foundNine := false
	for _, v := range alert.Violations {
		if v.Rule.ID == "general-9" && strings.Contains(v.Reason, `door "east"`) {
			foundNine = true
		}
	}
	if !foundNine {
		t.Errorf("rule 9 should cite the open east panel: %v", alert.Violations)
	}
	// All closed: allowed (the decapper hosts containers? pt slots are
	// owned locations, so rules 5/6 apply — park a prepared vial first).
	s2 := multiDoorSetup(t)
	dev2 := s2.Session.Device("pass_through")
	if err := dev2.SetNamedDoor("west", true); err != nil {
		t.Fatal(err)
	}
	a := s2.Session.Arm("viperx")
	if err := a.PickUpObject("grid_NE_safe", "grid_NE", "vial_3"); err != nil {
		t.Fatal(err)
	}
	if err := a.GoToLocation("pt_west_approach"); err != nil {
		t.Fatal(err)
	}
	if err := a.PlaceObject("pt_slot_w_safe", "pt_slot_w", "vial_3"); err != nil {
		t.Fatal(err)
	}
	if err := a.GoToLocation("pt_west_approach"); err != nil {
		t.Fatal(err)
	}
	if err := a.GoHome(); err != nil {
		t.Fatal(err)
	}
	if err := dev2.SetNamedDoor("west", false); err != nil {
		t.Fatal(err)
	}
	if err := dev2.Start(0); err != nil {
		t.Fatalf("all-closed start blocked: %v", err)
	}
}

func TestMultiDoorPhysicalPassThrough(t *testing.T) {
	// Unprotected ground truth: entering through the open west door is
	// safe; continuing east into the *closed* east panel breaks it.
	s, err := rabit.New(multiDoorSpec(), rabit.Options{Stage: env.StageTestbed, Unprotected: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("ned2").GoSleep(); err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Device("pass_through").SetNamedDoor("west", true); err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("viperx").GoToLocation("pt_west_approach"); err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("viperx").GoToLocation("pt_slot_w"); err != nil {
		t.Fatalf("entry failed: %v", err)
	}
	// Push on toward a point past the east wall.
	err = s.Session.Arm("viperx").MovePose(geom.V(0.56, -0.12, 0.12))
	if err == nil {
		t.Fatal("pushing through the closed east door should collide")
	}
	evs := s.Env.World().Events()
	if len(evs) == 0 || evs[0].Kind != world.EventDoorBreak {
		t.Fatalf("want a door-break event, got %v", evs)
	}
}

func TestMultiDoorLint(t *testing.T) {
	spec := multiDoorSpec()
	// Unknown door reference from a location.
	spec.Locations[len(spec.Locations)-1].Door = "north"
	if ds := config.Lint(spec); !config.HasErrors(ds) {
		t.Error("unknown door reference accepted")
	}
	// Duplicate door names.
	spec2 := multiDoorSpec()
	for i := range spec2.Devices {
		if spec2.Devices[i].ID == "pass_through" {
			spec2.Devices[i].Doors[1].Name = "west"
		}
	}
	if ds := config.Lint(spec2); !config.HasErrors(ds) {
		t.Error("duplicate door names accepted")
	}
}
