package eval

import (
	"strings"
	"testing"

	rabit "repro"
	"repro/internal/geom"
	"repro/internal/world"
)

// TestWallStrikeBlockedAndGroundTruth covers Table V's "robot arm making
// holes in a wall" hazard class: a raw move whose target sits beyond the
// lab wall is blocked by the target check; unprotected, the arm punches
// the wall (a Medium-High event).
func TestWallStrikeBlockedAndGroundTruth(t *testing.T) {
	// Protected: blocked before execution.
	s, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("ned2").GoSleep(); err != nil {
		t.Fatal(err)
	}
	// Hover near the wall, then push through: the target sits just past
	// the back wall at y=0.62, still inside the ViperX's reach.
	hover := geom.V(0.35, 0.52, 0.35)
	target := geom.V(0.35, 0.64, 0.30)
	if err := s.Session.Arm("viperx").MovePose(hover); err != nil {
		t.Fatal(err)
	}
	err = s.Session.Arm("viperx").MovePose(target)
	if err == nil {
		t.Fatal("wall-piercing move accepted")
	}
	if !strings.Contains(err.Error(), "wall") {
		t.Errorf("alert should mention the wall: %v", err)
	}

	// Unprotected ground truth.
	u, err := rabit.NewTestbed(rabit.Options{Unprotected: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Session.Arm("viperx").MovePose(hover); err != nil {
		t.Fatal(err)
	}
	_ = u.Session.Arm("viperx").MovePose(target)
	evs := u.Env.World().Events()
	if len(evs) == 0 {
		t.Fatal("unprotected wall strike left no trace")
	}
	found := false
	for _, ev := range evs {
		if ev.Severity == world.SeverityMediumHigh && strings.Contains(ev.Description, "wall") {
			found = true
		}
	}
	if !found {
		t.Errorf("want a Medium-High wall event, got %v", evs)
	}
}

// TestWallHeldObjectCheck verifies the wall check has no false positives
// for legitimate near-wall work.
func TestWallHeldObjectCheck(t *testing.T) {
	s, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session.Arm("ned2").GoSleep(); err != nil {
		t.Fatal(err)
	}
	// Verify a safe near-wall move passes (no false positive at ~5 cm
	// clearance), away from the dosing device's footprint.
	if err := s.Session.Arm("viperx").MovePose(geom.V(0.45, 0.57, 0.30)); err != nil {
		t.Fatalf("near-wall move should pass: %v", err)
	}
}
