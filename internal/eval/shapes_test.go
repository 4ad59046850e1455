package eval

import (
	"testing"

	rabit "repro"
	"repro/internal/config"
	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/labs"
	"repro/internal/rules"
)

// shapeSpec adds a mockup to the testbed, either as a plain cuboid or as
// a dome (the Section V-C shape extension: a centrifuge "resembles a
// hemisphere more than a cuboid").
func shapeSpec(shape string) *config.LabSpec {
	spec := labs.TestbedSpec()
	spec.Devices = append(spec.Devices, config.DeviceSpec{
		ID: "dome_mockup", Type: "action_device", Kind: "thermoshaker", ClassName: "CardboardMockup",
		Shape: shape,
		Cuboid: config.BoxSpec{
			Min: config.Vec{X: 0.40, Y: -0.30, Z: 0},
			Max: config.Vec{X: 0.54, Y: -0.16, Z: 0.14},
		},
	})
	return spec
}

// TestRoundedShapesRelaxCornerClearance: a gripper working just above the
// cuboid's top corner is flagged under the cuboid model but passes under
// the dome model — and the physical world agrees, so the refinement
// removes a false positive rather than hiding a real collision.
func TestRoundedShapesRelaxCornerClearance(t *testing.T) {
	// The probe descends over the box corner: inside the cuboid's
	// collision margin, outside the inscribed dome.
	probe := geom.V(0.52, -0.18, 0.19)

	for _, tc := range []struct {
		shape     string
		wantAlert bool
	}{
		{"", true},      // cuboid: corner counts as solid
		{"dome", false}, // dome: the corner is air
	} {
		s, err := rabit.New(shapeSpec(tc.shape), rabit.Options{
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
		err = s.Session.Arm("viperx").MovePose(probe)
		if tc.wantAlert && err == nil {
			t.Errorf("shape %q: corner move should be flagged", tc.shape)
		}
		if !tc.wantAlert {
			if err != nil {
				t.Errorf("shape %q: corner move should pass: %v", tc.shape, err)
			}
			// Ground truth agrees: no damage happened.
			if evs := s.Env.World().Events(); len(evs) != 0 {
				t.Errorf("shape %q: physical damage: %v", tc.shape, evs)
			}
		}
	}
}

// TestRoundedShapeStillBlocksRealCollisions: driving straight into the
// dome's centre is caught under both models, by the target check and by
// the Extended Simulator.
func TestRoundedShapeStillBlocksRealCollisions(t *testing.T) {
	s, err := rabit.New(shapeSpec("dome"), rabit.Options{
		Stage:             env.StageTestbed,
		Generation:        rules.GenModified,
		Multiplex:         rules.MultiplexTime,
		ExtendedSimulator: true,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("ned2").GoSleep(); err != nil {
		t.Fatal(err)
	}
	err = s.Session.Arm("viperx").MovePose(geom.V(0.47, -0.23, 0.12))
	if err == nil {
		t.Fatal("move into the dome's core accepted")
	}
}

// TestShapeLint verifies the configuration guard rails for shapes.
func TestShapeLint(t *testing.T) {
	spec := shapeSpec("pyramid")
	if ds := config.Lint(spec); !config.HasErrors(ds) {
		t.Error("unknown shape accepted")
	}
	spec2 := shapeSpec("dome")
	for i := range spec2.Devices {
		if spec2.Devices[i].ID == "dome_mockup" {
			spec2.Devices[i].Interior = &config.BoxSpec{
				Min: config.Vec{X: 0.42, Y: -0.28, Z: 0.02},
				Max: config.Vec{X: 0.52, Y: -0.18, Z: 0.12},
			}
		}
	}
	if ds := config.Lint(spec2); !config.HasErrors(ds) {
		t.Error("rounded shape with an interior accepted")
	}
}
