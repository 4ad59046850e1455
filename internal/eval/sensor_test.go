package eval

import (
	"strings"
	"testing"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/labs"
	"repro/internal/rules"
)

// sensorSpec extends the testbed with a presence sensor watching the
// shared deck zone and a declarative rule forbidding arm motion while a
// person stands in it — the Section V-B extension ("by incorporating
// sensors, which could be treated as a new device class, one could
// imagine enhancing RABIT to respond to sensor inputs").
func sensorSpec() *config.LabSpec { return testbedSpecWithSensor() }

func testbedSpecWithSensor() *config.LabSpec {
	spec := labs.TestbedSpec()
	spec.Devices = append(spec.Devices, config.DeviceSpec{
		ID: "deck_sensor", Type: "sensor", Kind: "presence", ClassName: "CardboardMockup",
		Cuboid: config.BoxSpec{
			Min: config.Vec{X: 0.0, Y: -0.6, Z: 0},
			Max: config.Vec{X: 0.9, Y: 0.6, Z: 0.6},
		},
	})
	spec.Rules = append(spec.Rules, config.CustomRuleSpec{
		ID:          "human-clear",
		Description: "Robot arms may only move while the monitored zone is clear of people",
		Number:      9,
		AppliesTo:   []string{"move_robot", "move_robot_inside"},
		Devices:     []string{"viperx", "ned2"},
		Requires: []config.RequirementSpec{
			{Var: "zoneOccupied", Arg: "deck_sensor", Equals: false},
		},
	})
	return spec
}

// TestSensorDeviceClassBlocksMotion exercises the full loop: the sensor's
// reading enters RABIT's model through FetchState, and the JSON-declared
// rule halts arm motion the moment a person is seen in the zone.
func TestSensorDeviceClassBlocksMotion(t *testing.T) {
	s, err := rabit.New(sensorSpec(), rabit.Options{
		Stage:      env.StageTestbed,
		Generation: rules.GenModified,
		Multiplex:  rules.MultiplexTime,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sensor is categorized as the new device class.
	if ty, ok := s.Lab.DeviceType("deck_sensor"); !ok || ty != rules.TypeSensor {
		t.Fatalf("deck_sensor type = %v, %v", ty, ok)
	}

	// Zone clear: the arm moves freely.
	if err := s.Session.Arm("ned2").GoSleep(); err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("viperx").GoToLocation("grid_NW_safe"); err != nil {
		t.Fatalf("clear-zone move blocked: %v", err)
	}

	// A person walks into the zone; the next status refresh makes RABIT
	// see it, and motion is blocked before execution.
	f, _ := s.Env.World().Fixture("deck_sensor")
	f.Occupied = true
	if err := s.Interceptor.Do(action.Command{Device: "deck_sensor", Action: action.ReadStatus}); err != nil {
		t.Fatal(err)
	}
	err = s.Session.Arm("viperx").GoToLocation("grid_NE_safe")
	if err == nil {
		t.Fatal("motion allowed with a person in the zone")
	}
	if !strings.Contains(err.Error(), "human-clear") {
		t.Errorf("alert should cite the sensor rule: %v", err)
	}

	// The person leaves; restarting the stopped experiment re-acquires
	// the state and motion resumes.
	f.Occupied = false
	s.Engine.Start()
	if err := s.Session.Arm("viperx").GoToLocation("grid_NE_safe"); err != nil {
		t.Fatalf("clear-zone move still blocked: %v", err)
	}
}

// TestFrozenSensorIsWhyLabsDistrustThem reproduces the Berlinguette
// Lab's complaint (Section V-B): a malfunctioning sensor silently reports
// "clear", so the rule passes while a person stands in the zone — the
// false-negative failure mode that made them remove their sensors.
func TestFrozenSensorIsWhyLabsDistrustThem(t *testing.T) {
	s, err := rabit.New(sensorSpec(), rabit.Options{
		Stage:      env.StageTestbed,
		Generation: rules.GenModified,
		Multiplex:  rules.MultiplexTime,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Env.InjectFault("deck_sensor", device.FaultActionStuck); err != nil {
		t.Fatal(err)
	}
	f, _ := s.Env.World().Fixture("deck_sensor")
	f.Occupied = true
	s.Engine.Start() // fresh acquisition reads the frozen sensor
	if err := s.Session.Arm("ned2").GoSleep(); err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("viperx").GoToLocation("grid_NW_safe"); err != nil {
		t.Fatalf("the frozen sensor should let the move through (that is the hazard): %v", err)
	}
}
