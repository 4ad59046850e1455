package sim

import (
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/labs"
	"repro/internal/state"
)

func testbedSim(t *testing.T, opts ...Option) (*Simulator, *config.Lab) {
	t.Helper()
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(lab, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, lab
}

func model(lab *config.Lab) state.Snapshot { return lab.InitialModelState() }

func move(target geom.Vec3) action.Command {
	return action.Command{Device: "viperx", Action: action.MoveRobot, Target: target}
}

func TestValidTrajectoryAcceptsFreeMove(t *testing.T) {
	s, lab := testbedSim(t)
	if err := validate(s, move(geom.V(0.32, 0.22, 0.25)), model(lab)); err != nil {
		t.Fatalf("free move rejected: %v", err)
	}
	if s.Checks() != 1 {
		t.Errorf("checks = %d", s.Checks())
	}
}

func TestValidTrajectoryRejectsCuboidCollision(t *testing.T) {
	s, lab := testbedSim(t)
	// Straight into the grid body (the paper's "move UR3e inside the
	// grid" scenario, on the testbed arm).
	err := validate(s, move(geom.V(0.35, 0.25, 0.05)), model(lab))
	if err == nil {
		t.Fatal("grid collision accepted")
	}
	if !strings.Contains(err.Error(), "grid") {
		t.Errorf("violation should name the grid: %v", err)
	}
}

func TestValidTrajectoryRejectsUnplannableTarget(t *testing.T) {
	s, lab := testbedSim(t)
	err := validate(s, move(geom.V(0.1, 0.1, 1.5)), model(lab))
	if err == nil {
		t.Fatal("unplannable target accepted")
	}
	if !strings.Contains(err.Error(), "cannot compute trajectory") {
		t.Errorf("violation should say the trajectory is uncomputable: %v", err)
	}
}

func TestValidTrajectoryRejectsMidPathCollision(t *testing.T) {
	s, lab := testbedSim(t)
	m := model(lab)
	// Park the mirror low south of the centrifuge, then ask for the leg
	// across it — the footnote-2 replay.
	via := move(geom.V(0.63, -0.38, 0.30))
	if err := validate(s, via, m); err != nil {
		t.Fatal(err)
	}
	s.Observe(via, m)
	down := move(geom.V(0.63, -0.38, 0.12))
	if err := validate(s, down, m); err != nil {
		t.Fatal(err)
	}
	s.Observe(down, m)
	leg := move(geom.V(0.63, -0.02, 0.12))
	err := validate(s, leg, m)
	if err == nil {
		t.Fatal("mid-path centrifuge crossing accepted")
	}
	if !strings.Contains(err.Error(), "centrifuge") {
		t.Errorf("violation should name the centrifuge: %v", err)
	}
}

func TestValidTrajectoryDoorAwareness(t *testing.T) {
	s, lab := testbedSim(t)
	m := model(lab)
	inside := action.Command{
		Device: "viperx", Action: action.MoveRobotInside,
		InsideDevice: "dosing_device", TargetName: "dd_safe_height",
	}
	// Reaching inside is geometrically fine for the simulator — door
	// state is rule 1's concern, and the engine checks it first.
	if err := validate(s, inside, m); err != nil {
		t.Fatalf("doorway entry rejected: %v", err)
	}
}

func TestHeldObjectAwareness(t *testing.T) {
	aware, lab := testbedSim(t, WithHeldObjectAware(true))
	blind, _ := testbedSim(t, WithHeldObjectAware(false))
	m := model(lab)
	m.Set(state.Holding("viperx"), state.Bool(true))
	m.Set(state.HeldObject("viperx"), state.Str("vial_1"))
	// Bug-13 geometry: z=0.07 clears the bare gripper, not the vial.
	low := move(geom.V(0.45, 0.10, 0.07))
	if err := validate(blind, low, m); err != nil {
		t.Fatalf("held-blind simulator should accept: %v", err)
	}
	if err := validate(aware, low, m); err == nil {
		t.Fatal("held-aware simulator should reject the vial-crushing move")
	}
}

func TestObserveMirrorsAcceptedMoves(t *testing.T) {
	s, lab := testbedSim(t)
	m := model(lab)
	cmd := move(geom.V(0.32, 0.22, 0.25))
	if err := validate(s, cmd, m); err != nil {
		t.Fatal(err)
	}
	s.Observe(cmd, m)
	tcp, err := s.ArmTCP("viperx")
	if err != nil {
		t.Fatal(err)
	}
	if tcp.Dist(geom.V(0.32, 0.22, 0.25)) > 0.01 {
		t.Errorf("mirror TCP %v, want the move target", tcp)
	}
	// Observing an unplannable command leaves the mirror in place.
	s.Observe(move(geom.V(0.1, 0.1, 1.5)), m)
	tcp2, _ := s.ArmTCP("viperx")
	if tcp2.Dist(tcp) > 1e-9 {
		t.Error("mirror moved on a skipped command")
	}
	if _, err := s.ArmTCP("ghost"); err == nil {
		t.Error("ghost arm reported a TCP")
	}
}

func TestNonMotionCommandsBypass(t *testing.T) {
	s, lab := testbedSim(t)
	if err := validate(s, action.Command{Device: "dosing_device", Action: action.OpenDoor}, model(lab)); err != nil {
		t.Fatal(err)
	}
	if s.Checks() != 0 {
		t.Error("non-motion command counted as a check")
	}
}

func TestGUIRendersFrames(t *testing.T) {
	s, lab := testbedSim(t, WithGUI(320, 240))
	if err := validate(s, move(geom.V(0.32, 0.22, 0.25)), model(lab)); err != nil {
		t.Fatal(err)
	}
	if s.GUIFrames() == 0 {
		t.Fatal("no GUI frames rendered")
	}
	art := s.RenderASCII(80, 24)
	if art == "" {
		t.Fatal("no ASCII rendering")
	}
	if !strings.ContainsAny(art, "o#.") {
		t.Errorf("ASCII scene looks empty:\n%s", art)
	}
	// Headless simulators render nothing.
	headless, lab2 := testbedSim(t)
	_ = lab2
	if headless.GUIFrames() != 0 || headless.RenderASCII(10, 10) != "" {
		t.Error("headless simulator rendered")
	}
}

func TestRasterizerPrimitives(t *testing.T) {
	r := newRasterizer(160, 120)
	r.renderScene(nil, nil)
	if r.Frames() != 1 {
		t.Errorf("frames = %d", r.Frames())
	}
	snap := r.Snapshot()
	if !strings.Contains(snap, "160x120") {
		t.Errorf("snapshot = %q", snap)
	}
	// The platform alone lights pixels.
	if strings.Contains(snap, " 0 lit") {
		t.Error("empty framebuffer after a render")
	}
}

func TestHomeAndSleepTrajectories(t *testing.T) {
	s, lab := testbedSim(t)
	m := model(lab)
	// Move somewhere, then home and sleep — both planned from the mirror
	// without IK (direct joint interpolation) and validated.
	cmd := move(geom.V(0.32, 0.22, 0.25))
	if err := validate(s, cmd, m); err != nil {
		t.Fatal(err)
	}
	s.Observe(cmd, m)
	home := action.Command{Device: "viperx", Action: action.MoveHome}
	if err := validate(s, home, m); err != nil {
		t.Fatalf("homing rejected: %v", err)
	}
	s.Observe(home, m)
	sleep := action.Command{Device: "viperx", Action: action.MoveSleep}
	if err := validate(s, sleep, m); err != nil {
		t.Fatalf("sleep rejected: %v", err)
	}
	// Commands for unknown arms pass through (the simulator only models
	// configured arms).
	ghost := action.Command{Device: "ghost", Action: action.MoveRobot, Target: geom.V(0.1, 0, 0.2)}
	if err := validate(s, ghost, m); err != nil {
		t.Fatal(err)
	}
}
