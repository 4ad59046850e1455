package world

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/kin"
)

// testDeck builds a miniature testbed deck mirroring Fig. 4/5 of the
// paper: a ViperX and a Ned2, a solid vial grid, a hollow dosing device
// with a front door, a solid hotplate mockup, and one vial on the grid.
//
// Geometry (global frame, floor at z=0):
//
//	viperx base (0,0,0), ned2 base (0.8,0,0)
//	grid        solid box (0.29,0.19,0)–(0.41,0.31,0.08)
//	dosing dev  body (0.05,0.35,0)–(0.25,0.55,0.30), interior inset 0.03,
//	            door on the Y- face
//	hotplate    solid box (0.48,0.38,0)–(0.62,0.52,0.12)
func testDeck(t testing.TB) *World {
	t.Helper()
	w := New(1)

	vp, err := kin.NewProfile(kin.ModelViperX300, geom.PoseAt(geom.V(0, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddArm("viperx", vp); err != nil {
		t.Fatal(err)
	}
	nd, err := kin.NewProfile(kin.ModelNed2, geom.PoseAt(geom.V(0.8, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddArm("ned2", nd); err != nil {
		t.Fatal(err)
	}

	fixtures := []*Fixture{
		{
			ID: "grid", Kind: KindGrid,
			Body: geom.Box(geom.V(0.29, 0.19, 0), geom.V(0.41, 0.31, 0.08)),
		},
		{
			ID: "dosing_device", Kind: KindDosing, Expensive: true,
			Body:     geom.Box(geom.V(0.05, 0.35, 0), geom.V(0.25, 0.55, 0.30)),
			Interior: geom.Box(geom.V(0.08, 0.38, 0.03), geom.V(0.22, 0.52, 0.27)),
			Door:     DoorYNeg,
		},
		{
			ID: "hotplate", Kind: KindHotplate,
			Body:         geom.Box(geom.V(0.48, 0.38, 0), geom.V(0.62, 0.52, 0.12)),
			MaxSafeValue: 340,
		},
	}
	for _, f := range fixtures {
		if err := w.AddFixture(f); err != nil {
			t.Fatal(err)
		}
	}

	locs := []Location{
		{Name: "grid_NW", Pos: geom.V(0.32, 0.22, 0.16), Owner: "grid"},
		{Name: "grid_NW_safe", Pos: geom.V(0.32, 0.22, 0.23), Owner: "grid"},
		{Name: "grid_NE", Pos: geom.V(0.38, 0.22, 0.16), Owner: "grid"},
		{Name: "dd_approach", Pos: geom.V(0.15, 0.30, 0.19), Owner: "dosing_device"},
		{Name: "dd_pickup", Pos: geom.V(0.15, 0.45, 0.10), Owner: "dosing_device", Inside: true},
		{Name: "dd_safe", Pos: geom.V(0.15, 0.45, 0.19), Owner: "dosing_device", Inside: true},
		{Name: "hp_place", Pos: geom.V(0.55, 0.45, 0.20), Owner: "hotplate"},
	}
	for _, l := range locs {
		if err := w.AddLocation(l); err != nil {
			t.Fatal(err)
		}
	}

	vial := &Object{
		ID: "vial_1", HeightM: 0.07, RadiusM: 0.012,
		CapacityMg: 10, CapacityML: 12,
		At: "grid_NW",
	}
	if err := w.AddObject(vial); err != nil {
		t.Fatal(err)
	}
	return w
}

// clearVial removes the grid vial from play for scenarios where an
// incidental brush with it would obscure the behaviour under test.
func clearVial(t *testing.T, w *World) {
	t.Helper()
	o, ok := w.Object("vial_1")
	if !ok {
		t.Fatal("test deck has no vial_1")
	}
	o.At = ""
}

func mustMove(t *testing.T, w *World, arm string, target geom.Vec3) {
	t.Helper()
	if err := w.MoveArmTo(arm, target, MoveOptions{}); err != nil {
		t.Fatalf("MoveArmTo(%s, %v): %v", arm, target, err)
	}
}

func TestDeckConstructionValidation(t *testing.T) {
	w := New(1)
	if err := w.AddFixture(&Fixture{}); err == nil {
		t.Error("fixture without ID accepted")
	}
	if err := w.AddFixture(&Fixture{ID: "x", Body: geom.AABB{Min: geom.V(1, 0, 0), Max: geom.V(0, 1, 1)}}); err == nil {
		t.Error("invalid body accepted")
	}
	f := &Fixture{ID: "x", Body: geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))}
	if err := w.AddFixture(f); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFixture(f); err == nil {
		t.Error("duplicate fixture accepted")
	}
	if err := w.AddLocation(Location{Name: "a", Pos: geom.V(0, 0, 0.2)}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddLocation(Location{Name: "a"}); err == nil {
		t.Error("duplicate location accepted")
	}
	if err := w.AddObject(&Object{ID: "o", At: "nowhere"}); err == nil {
		t.Error("object at unknown location accepted")
	}
}

func TestSafeMoveProducesNoDamage(t *testing.T) {
	w := testDeck(t)
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.23)) // hover over grid
	if evs := w.Events(); len(evs) != 0 {
		t.Fatalf("safe move produced damage: %v", evs)
	}
	if w.DamageCost() != 0 {
		t.Error("damage cost non-zero after safe move")
	}
}

func TestMoveAdvancesClockAndPrecision(t *testing.T) {
	w := testDeck(t)
	before := w.Now()
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.23))
	if w.Now() <= before {
		t.Error("clock did not advance")
	}
	a, _ := w.Arm("viperx")
	// Precision should be on the order of the arm's repeatability plus IK
	// tolerance, i.e. a few millimetres at most for the testbed arm.
	if p := a.Precision(); p > 0.01 {
		t.Errorf("precision error %v too large", p)
	}
}

func TestPickAndPlaceVial(t *testing.T) {
	w := testDeck(t)
	// Approach above, descend onto the vial, grasp.
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.23))
	if err := w.MoveArmTo("viperx", geom.V(0.32, 0.22, 0.16),
		MoveOptions{IgnoreObjects: []string{"vial_1"}}); err != nil {
		t.Fatalf("descend: %v", err)
	}
	if err := w.CloseGripper("viperx"); err != nil {
		t.Fatal(err)
	}
	a, _ := w.Arm("viperx")
	if a.Holding != "vial_1" {
		t.Fatalf("grasp failed: holding %q", a.Holding)
	}
	o, _ := w.Object("vial_1")
	if o.At != "" || o.HeldBy != "viperx" {
		t.Errorf("object state wrong after grasp: at=%q heldBy=%q", o.At, o.HeldBy)
	}

	// Carry to the free grid slot and place.
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.23))
	mustMove(t, w, "viperx", geom.V(0.38, 0.22, 0.23))
	mustMove(t, w, "viperx", geom.V(0.38, 0.22, 0.16))
	if err := w.OpenGripper("viperx"); err != nil {
		t.Fatal(err)
	}
	if a.Holding != "" {
		t.Error("still holding after place")
	}
	if o.At != "grid_NE" {
		t.Errorf("vial at %q, want grid_NE", o.At)
	}
	if evs := w.Events(); len(evs) != 0 {
		t.Fatalf("pick-and-place produced damage: %v", evs)
	}
}

func TestCloseGripperOnAirGrabsNothing(t *testing.T) {
	w := testDeck(t)
	mustMove(t, w, "viperx", geom.V(0.38, 0.22, 0.16)) // empty slot
	if err := w.CloseGripper("viperx"); err != nil {
		t.Fatal(err)
	}
	a, _ := w.Arm("viperx")
	if a.Holding != "" {
		t.Errorf("grabbed %q out of thin air", a.Holding)
	}
	if !a.GripperClosed {
		t.Error("gripper should be closed")
	}
}

func TestOpenGripperMidAirDropsAndBreaks(t *testing.T) {
	w := testDeck(t)
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.23))
	if err := w.MoveArmTo("viperx", geom.V(0.32, 0.22, 0.16),
		MoveOptions{IgnoreObjects: []string{"vial_1"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.CloseGripper("viperx"); err != nil {
		t.Fatal(err)
	}
	// Move high above the deck, then open the gripper.
	mustMove(t, w, "viperx", geom.V(0.45, 0.10, 0.35))
	if err := w.OpenGripper("viperx"); err != nil {
		t.Fatal(err)
	}
	o, _ := w.Object("vial_1")
	if !o.Broken {
		t.Error("vial dropped from 0.35 m should have broken")
	}
	evs := w.Events()
	if len(evs) != 1 || evs[0].Kind != EventDrop || evs[0].Severity != SeverityMediumLow {
		t.Errorf("expected one Medium-Low drop event, got %v", evs)
	}
}

func TestMoveIntoClosedDoorBreaksIt(t *testing.T) {
	w := testDeck(t)
	// Door never opened; drive toward the in-device pickup point.
	mustMove(t, w, "viperx", geom.V(0.15, 0.30, 0.19)) // approach, outside
	err := w.MoveArmTo("viperx", geom.V(0.15, 0.45, 0.19), MoveOptions{})
	if err == nil {
		t.Fatal("expected collision with closed door")
	}
	ce, ok := AsCollision(err)
	if !ok {
		t.Fatalf("want CollisionError, got %v", err)
	}
	if ce.Ev.Kind != EventDoorBreak {
		t.Errorf("event kind = %v, want door-break", ce.Ev.Kind)
	}
	if ce.Ev.Severity != SeverityHigh {
		t.Errorf("severity = %v, want High (expensive dosing device)", ce.Ev.Severity)
	}
	f, _ := w.Fixture("dosing_device")
	if !f.Broken {
		t.Error("fixture not marked broken")
	}
}

func TestMoveThroughOpenDoorIsSafe(t *testing.T) {
	w := testDeck(t)
	if err := w.SetDoor("dosing_device", true); err != nil {
		t.Fatal(err)
	}
	mustMove(t, w, "viperx", geom.V(0.15, 0.30, 0.19))
	mustMove(t, w, "viperx", geom.V(0.15, 0.45, 0.19))
	inside, err := w.ArmReachesInto("viperx", "dosing_device")
	if err != nil {
		t.Fatal(err)
	}
	if !inside {
		t.Error("arm should be inside the dosing device")
	}
	if evs := w.Events(); len(evs) != 0 {
		t.Fatalf("open-door entry produced damage: %v", evs)
	}
}

func TestCloseDoorOnArmBreaksDoor(t *testing.T) {
	w := testDeck(t)
	if err := w.SetDoor("dosing_device", true); err != nil {
		t.Fatal(err)
	}
	mustMove(t, w, "viperx", geom.V(0.15, 0.30, 0.19))
	mustMove(t, w, "viperx", geom.V(0.15, 0.45, 0.19))
	if err := w.SetDoor("dosing_device", false); err != nil {
		t.Fatal(err)
	}
	evs := w.Events()
	if len(evs) != 1 || evs[0].Kind != EventDoorBreak {
		t.Fatalf("expected door-break event, got %v", evs)
	}
	if evs[0].Severity != SeverityHigh {
		t.Errorf("severity = %v, want High", evs[0].Severity)
	}
}

func TestFingersDiveIntoPlatform(t *testing.T) {
	// Bug 9 mechanics: a very low target makes the gripper fingers
	// penetrate the platform.
	w := testDeck(t)
	mustMove(t, w, "viperx", geom.V(0.15, 0.30, 0.19))
	err := w.MoveArmTo("viperx", geom.V(0.15, 0.30, 0.03), MoveOptions{})
	if err == nil {
		t.Fatal("expected platform collision")
	}
	ce, ok := AsCollision(err)
	if !ok {
		t.Fatalf("want CollisionError, got %v", err)
	}
	if ce.Ev.Severity != SeverityMediumHigh {
		t.Errorf("severity = %v, want Medium-High (platform strike)", ce.Ev.Severity)
	}
	if !strings.Contains(ce.Ev.Description, "platform") {
		t.Errorf("description %q should mention the platform", ce.Ev.Description)
	}
}

func TestHeldVialCrashesIntoPlatform(t *testing.T) {
	// Bug 13 mechanics (Fig. 6): the pickup z lowered toward the deck —
	// safe for the bare gripper, fatal for the hanging vial.
	w := testDeck(t)
	if err := w.SetDoor("dosing_device", true); err != nil {
		t.Fatal(err)
	}
	// Grab the vial from the grid.
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.23))
	if err := w.MoveArmTo("viperx", geom.V(0.32, 0.22, 0.16),
		MoveOptions{IgnoreObjects: []string{"vial_1"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.CloseGripper("viperx"); err != nil {
		t.Fatal(err)
	}
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.28))
	// The buggy placement: a lowered z out on the open deck — safe for
	// the bare gripper, fatal for the hanging vial.
	err := w.MoveArmTo("viperx", geom.V(0.45, 0.10, 0.07), MoveOptions{})
	if err == nil {
		t.Fatal("expected held-vial platform crash")
	}
	ce, ok := AsCollision(err)
	if !ok {
		t.Fatalf("want CollisionError, got %v", err)
	}
	if ce.Ev.Kind != EventGlassBreak || ce.Ev.Severity != SeverityMediumLow {
		t.Errorf("want Medium-Low glass break, got %v %v", ce.Ev.Kind, ce.Ev.Severity)
	}
	o, _ := w.Object("vial_1")
	if !o.Broken {
		t.Error("vial should be broken")
	}
	// The same move with no vial is safe.
	w2 := testDeck(t)
	mustMove(t, w2, "viperx", geom.V(0.45, 0.10, 0.20))
	if err := w2.MoveArmTo("viperx", geom.V(0.45, 0.10, 0.07), MoveOptions{}); err != nil {
		t.Errorf("bare-gripper move to z=0.07 should be safe: %v", err)
	}
}

func TestHeldVialClipsDeviceCuboid(t *testing.T) {
	// Bug 11 mechanics: an approach waypoint above the hotplate that
	// clears the bare gripper but not the hanging vial.
	w := testDeck(t)
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.23))
	if err := w.MoveArmTo("viperx", geom.V(0.32, 0.22, 0.16),
		MoveOptions{IgnoreObjects: []string{"vial_1"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.CloseGripper("viperx"); err != nil {
		t.Fatal(err)
	}
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.30))
	err := w.MoveArmTo("viperx", geom.V(0.55, 0.45, 0.19), MoveOptions{})
	if err == nil {
		t.Fatal("expected held vial to clip the hotplate")
	}
	ce, ok := AsCollision(err)
	if !ok {
		t.Fatalf("want CollisionError, got %v", err)
	}
	if ce.Ev.Severity != SeverityMediumHigh {
		t.Errorf("severity = %v, want Medium-High", ce.Ev.Severity)
	}
	// Without a vial the same move is safe.
	w2 := testDeck(t)
	clearVial(t, w2)
	mustMove(t, w2, "viperx", geom.V(0.32, 0.22, 0.30))
	if err := w2.MoveArmTo("viperx", geom.V(0.55, 0.45, 0.19), MoveOptions{}); err != nil {
		t.Errorf("bare-gripper approach should clear the hotplate: %v", err)
	}
}

func TestTwoArmCollision(t *testing.T) {
	// Bug B mechanics: ViperX hovers above the grid; Ned2 is sent to a
	// nearby point and strikes it.
	w := testDeck(t)
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.23))
	err := w.MoveArmTo("ned2", geom.V(0.34, 0.22, 0.24), MoveOptions{})
	if err == nil {
		t.Fatal("expected arm-arm collision")
	}
	ce, ok := AsCollision(err)
	if !ok {
		t.Fatalf("want CollisionError, got %v", err)
	}
	if ce.Ev.Severity != SeverityMediumHigh {
		t.Errorf("severity = %v, want Medium-High", ce.Ev.Severity)
	}
	if !strings.Contains(ce.Ev.Description, "viperx") || !strings.Contains(ce.Ev.Description, "ned2") {
		t.Errorf("description %q should name both arms", ce.Ev.Description)
	}
}

func TestConcurrentMovesCanCollideMidFlight(t *testing.T) {
	w := testDeck(t)
	// Both arms sweep across the middle of the deck simultaneously.
	err := w.MoveArmsConcurrently([]ConcurrentMove{
		{ArmID: "viperx", Target: geom.V(0.55, 0.10, 0.25)},
		{ArmID: "ned2", Target: geom.V(0.35, 0.10, 0.25)},
	})
	if err == nil {
		t.Fatal("expected mid-flight collision between crossing arms")
	}
	if _, ok := AsCollision(err); !ok {
		t.Fatalf("want CollisionError, got %v", err)
	}
}

func TestConcurrentMovesInSeparateZonesAreSafe(t *testing.T) {
	w := testDeck(t)
	err := w.MoveArmsConcurrently([]ConcurrentMove{
		{ArmID: "viperx", Target: geom.V(0.25, 0.15, 0.25)},
		{ArmID: "ned2", Target: geom.V(0.75, 0.15, 0.25)},
	})
	if err != nil {
		t.Fatalf("zone-separated concurrent moves should be safe: %v", err)
	}
	if evs := w.Events(); len(evs) != 0 {
		t.Fatalf("unexpected damage: %v", evs)
	}
}

func TestUnreachableTargetReturnsKinError(t *testing.T) {
	w := testDeck(t)
	err := w.MoveArmTo("viperx", geom.V(0.1, 0.1, 3.0), MoveOptions{})
	if err == nil {
		t.Fatal("expected unreachable error")
	}
	if _, isCollision := AsCollision(err); isCollision {
		t.Error("unreachable target must not be a collision")
	}
	a, _ := w.Arm("viperx")
	home, _ := a.Profile.Chain.EndEffector(a.Profile.Home)
	cur, _ := a.TCP()
	if cur.Dist(home) > 1e-9 {
		t.Error("arm moved despite unreachable target")
	}
}

func TestWrongRollSwingsFingersSideways(t *testing.T) {
	// Bug 12 mechanics: at the grid-adjacent waypoint, rolling the wrist
	// 90° swings the finger blade into the grid body.
	w := testDeck(t)
	// A point just left of the grid, low enough that a sideways finger
	// blade (+X swing) reaches into the grid body while vertical fingers
	// hang clear of everything. Both runs hover above the point first —
	// the wrappers' standard approach discipline.
	hover := geom.V(0.25, 0.28, 0.25)
	target := geom.V(0.25, 0.28, 0.07)
	clearVial(t, w)
	w2 := testDeck(t)
	clearVial(t, w2)
	mustMove(t, w2, "viperx", hover)
	if err := w2.MoveArmTo("viperx", target, MoveOptions{Roll: 0}); err != nil {
		t.Fatalf("vertical-finger move should be safe: %v", err)
	}
	mustMove(t, w, "viperx", hover)
	err := w.MoveArmTo("viperx", target, MoveOptions{Roll: math.Pi / 2})
	if err == nil {
		t.Fatal("expected finger blade to strike the grid")
	}
	ce, ok := AsCollision(err)
	if !ok {
		t.Fatalf("want CollisionError, got %v", err)
	}
	if ce.Ev.Severity != SeverityMediumHigh {
		t.Errorf("severity = %v, want Medium-High (grid strike)", ce.Ev.Severity)
	}
}

func TestDoseSolidSpillsWithoutContainer(t *testing.T) {
	w := testDeck(t)
	if err := w.DoseSolidInto("dosing_device", 5); err != nil {
		t.Fatal(err)
	}
	evs := w.Events()
	if len(evs) != 1 || evs[0].Kind != EventSpill || evs[0].Severity != SeverityLow {
		t.Fatalf("expected Low spill, got %v", evs)
	}
}

func TestDoseSolidIntoPresentContainer(t *testing.T) {
	w := testDeck(t)
	if err := w.SetDoor("dosing_device", true); err != nil {
		t.Fatal(err)
	}
	// Carry the vial into the dosing device.
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.23))
	if err := w.MoveArmTo("viperx", geom.V(0.32, 0.22, 0.16),
		MoveOptions{IgnoreObjects: []string{"vial_1"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.CloseGripper("viperx"); err != nil {
		t.Fatal(err)
	}
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.28))
	mustMove(t, w, "viperx", geom.V(0.15, 0.30, 0.19))
	mustMove(t, w, "viperx", geom.V(0.15, 0.45, 0.19))
	mustMove(t, w, "viperx", geom.V(0.15, 0.45, 0.10))
	if err := w.OpenGripper("viperx"); err != nil {
		t.Fatal(err)
	}
	o, _ := w.Object("vial_1")
	if o.At != "dd_pickup" {
		t.Fatalf("vial at %q, want dd_pickup", o.At)
	}
	// Withdraw (straight up past the released vial) and close the door
	// before dosing, as the real workflow does.
	if err := w.MoveArmTo("viperx", geom.V(0.15, 0.45, 0.19),
		MoveOptions{IgnoreObjects: []string{"vial_1"}}); err != nil {
		t.Fatal(err)
	}
	mustMove(t, w, "viperx", geom.V(0.15, 0.30, 0.19))
	if err := w.SetDoor("dosing_device", false); err != nil {
		t.Fatal(err)
	}
	if err := w.DoseSolidInto("dosing_device", 5); err != nil {
		t.Fatal(err)
	}
	if o.SolidMg != 5 {
		t.Errorf("solid = %v mg, want 5", o.SolidMg)
	}
	if evs := w.Events(); len(evs) != 0 {
		t.Fatalf("unexpected damage: %v", evs)
	}
}

func TestDoseSolidOverflow(t *testing.T) {
	w := testDeck(t)
	if err := w.SetDoor("dosing_device", true); err != nil {
		t.Fatal(err)
	}
	o, _ := w.Object("vial_1")
	o.At = "dd_pickup" // teleport for test setup
	if err := w.SetDoor("dosing_device", false); err != nil {
		t.Fatal(err)
	}
	if err := w.DoseSolidInto("dosing_device", 25); err != nil {
		t.Fatal(err)
	}
	if o.SolidMg != o.CapacityMg {
		t.Errorf("solid = %v, want clamped to capacity %v", o.SolidMg, o.CapacityMg)
	}
	evs := w.Events()
	if len(evs) != 1 || evs[0].Kind != EventSpill {
		t.Fatalf("expected overflow spill, got %v", evs)
	}
}

func TestDoseLiquidAndTransfer(t *testing.T) {
	w := testDeck(t)
	if err := w.AddFixture(&Fixture{ID: "pump", Kind: KindPump,
		Body: geom.Box(geom.V(0.7, 0.4, 0), geom.V(0.8, 0.5, 0.15))}); err != nil {
		t.Fatal(err)
	}
	if err := w.DoseLiquidInto("pump", "vial_1", 4); err != nil {
		t.Fatal(err)
	}
	o, _ := w.Object("vial_1")
	if o.LiquidML != 4 {
		t.Errorf("liquid = %v, want 4", o.LiquidML)
	}
	// Capped container: wasted.
	if err := w.SetCap("vial_1", true); err != nil {
		t.Fatal(err)
	}
	if err := w.DoseLiquidInto("pump", "vial_1", 4); err != nil {
		t.Fatal(err)
	}
	if o.LiquidML != 4 {
		t.Error("liquid changed despite stopper")
	}
	if evs := w.Events(); len(evs) != 1 || evs[0].Kind != EventSpill {
		t.Fatalf("expected spill event, got %v", evs)
	}
}

func TestTransferSubstanceBetweenContainers(t *testing.T) {
	w := testDeck(t)
	if err := w.AddLocation(Location{Name: "bench", Pos: geom.V(0.6, 0.1, 0.16)}); err != nil {
		t.Fatal(err)
	}
	b := &Object{ID: "beaker", HeightM: 0.1, RadiusM: 0.03, CapacityML: 100, LiquidML: 50, At: "bench"}
	if err := w.AddObject(b); err != nil {
		t.Fatal(err)
	}
	if err := w.TransferSubstance("beaker", "vial_1", 5); err != nil {
		t.Fatal(err)
	}
	o, _ := w.Object("vial_1")
	if o.LiquidML != 5 || b.LiquidML != 45 {
		t.Errorf("transfer wrong: vial %v, beaker %v", o.LiquidML, b.LiquidML)
	}
	// Transfer with stopper on wastes the material.
	if err := w.SetCap("vial_1", true); err != nil {
		t.Fatal(err)
	}
	if err := w.TransferSubstance("beaker", "vial_1", 5); err != nil {
		t.Fatal(err)
	}
	if o.LiquidML != 5 {
		t.Error("liquid passed a stopper")
	}
}

func TestHotplateOverheatDestroysDevice(t *testing.T) {
	w := testDeck(t)
	if err := w.SetFixtureValue("hotplate", 400); err != nil {
		t.Fatal(err)
	}
	if err := w.StartFixtureAction("hotplate"); err != nil {
		t.Fatal(err)
	}
	f, _ := w.Fixture("hotplate")
	if !f.Broken {
		t.Error("hotplate should be destroyed above its physical limit")
	}
	evs := w.Events()
	if len(evs) != 1 || evs[0].Kind != EventOverheat || evs[0].Severity != SeverityHigh {
		t.Fatalf("expected High overheat, got %v", evs)
	}
}

func TestHotplateSafeOperation(t *testing.T) {
	w := testDeck(t)
	if err := w.SetFixtureValue("hotplate", 120); err != nil {
		t.Fatal(err)
	}
	if err := w.StartFixtureAction("hotplate"); err != nil {
		t.Fatal(err)
	}
	f, _ := w.Fixture("hotplate")
	if f.Broken || f.Temperature != 120 || !f.Running {
		t.Errorf("hotplate state wrong: broken=%v temp=%v running=%v", f.Broken, f.Temperature, f.Running)
	}
	if err := w.StopFixtureAction("hotplate"); err != nil {
		t.Fatal(err)
	}
	if f.Running {
		t.Error("still running after stop")
	}
}

func TestCentrifugeUncappedSpraysContents(t *testing.T) {
	w := testDeck(t)
	cf := &Fixture{
		ID: "centrifuge", Kind: KindCentrifuge, Expensive: true,
		Body:        geom.Box(geom.V(0.65, 0.3, 0), geom.V(0.85, 0.5, 0.2)),
		Interior:    geom.Box(geom.V(0.68, 0.33, 0.03), geom.V(0.82, 0.47, 0.17)),
		Door:        DoorZPos,
		RedDotNorth: true,
	}
	if err := w.AddFixture(cf); err != nil {
		t.Fatal(err)
	}
	if err := w.AddLocation(Location{Name: "cf_slot", Pos: geom.V(0.75, 0.4, 0.12), Owner: "centrifuge", Inside: true}); err != nil {
		t.Fatal(err)
	}
	o, _ := w.Object("vial_1")
	o.SolidMg, o.LiquidML = 5, 5
	o.At = "cf_slot"
	if err := w.StartFixtureAction("centrifuge"); err != nil {
		t.Fatal(err)
	}
	if o.SolidMg != 0 || o.LiquidML != 0 {
		t.Error("uncapped spin should spray contents")
	}
	evs := w.Events()
	if len(evs) != 2 || evs[0].Kind != EventSpill || evs[1].Severity != SeverityHigh {
		t.Fatalf("expected spill + High rotor damage, got %v", evs)
	}
	if !cf.Broken {
		t.Error("uncapped spin should unbalance and damage the rotor")
	}

	// Mis-aligned rotor damages a fresh centrifuge even with a capped vial.
	w2 := testDeck(t)
	cf2 := &Fixture{
		ID: "centrifuge", Kind: KindCentrifuge, Expensive: true,
		Body:     geom.Box(geom.V(0.65, 0.3, 0), geom.V(0.85, 0.5, 0.2)),
		Interior: geom.Box(geom.V(0.68, 0.33, 0.03), geom.V(0.82, 0.47, 0.17)),
		Door:     DoorZPos,
	}
	if err := w2.AddFixture(cf2); err != nil {
		t.Fatal(err)
	}
	if err := w2.AddLocation(Location{Name: "cf_slot", Pos: geom.V(0.75, 0.4, 0.12), Owner: "centrifuge", Inside: true}); err != nil {
		t.Fatal(err)
	}
	o2, _ := w2.Object("vial_1")
	o2.SolidMg, o2.LiquidML = 5, 5
	o2.Capped = true
	o2.At = "cf_slot"
	if err := w2.StartFixtureAction("centrifuge"); err != nil {
		t.Fatal(err)
	}
	if !cf2.Broken {
		t.Error("mis-aligned spin should damage the rotor")
	}
	if w2.MaxSeverity() != SeverityHigh {
		t.Errorf("max severity = %v, want High", w2.MaxSeverity())
	}
}

func TestMeasureSolubility(t *testing.T) {
	w := testDeck(t)
	o, _ := w.Object("vial_1")
	o.SolidMg = 10
	got, err := w.MeasureSolubility("vial_1")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("no solvent: solubility %v, want 0", got)
	}
	o.LiquidML = 2.5 // dissolves 5 mg of the 10
	got, err = w.MeasureSolubility("vial_1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("solubility = %v, want 0.5", got)
	}
	o.LiquidML = 50
	if got, _ = w.MeasureSolubility("vial_1"); got != 1 {
		t.Errorf("excess solvent: solubility %v, want 1", got)
	}
}

func TestMoveHomeAndSleep(t *testing.T) {
	w := testDeck(t)
	a, _ := w.Arm("viperx")
	mustMove(t, w, "viperx", geom.V(0.32, 0.22, 0.25))
	if err := w.MoveArmJoints("viperx", a.Profile.Sleep, true); err != nil {
		t.Fatalf("sleep move: %v", err)
	}
	if !a.Asleep {
		t.Error("arm should be asleep")
	}
	if err := w.MoveArmJoints("viperx", a.Profile.Home, false); err != nil {
		t.Fatalf("home move: %v", err)
	}
	if a.Asleep {
		t.Error("arm should be awake after homing")
	}
	if evs := w.Events(); len(evs) != 0 {
		t.Fatalf("home/sleep produced damage: %v", evs)
	}
}

func TestNamedLocationOfArm(t *testing.T) {
	w := testDeck(t)
	mustMove(t, w, "viperx", geom.V(0.38, 0.22, 0.16))
	name, err := w.NamedLocationOfArm("viperx")
	if err != nil {
		t.Fatal(err)
	}
	if name != "grid_NE" {
		t.Errorf("location = %q, want grid_NE", name)
	}
	mustMove(t, w, "viperx", geom.V(0.45, 0.10, 0.30))
	if name, _ = w.NamedLocationOfArm("viperx"); name != "" {
		t.Errorf("raw-coordinate position reported as %q", name)
	}
}

func TestEventLogAccounting(t *testing.T) {
	w := testDeck(t)
	mustMove(t, w, "viperx", geom.V(0.15, 0.30, 0.19))
	_ = w.MoveArmTo("viperx", geom.V(0.15, 0.45, 0.19), MoveOptions{}) // closed door
	if w.DamageCost() != SeverityHigh.Cost() {
		t.Errorf("damage cost = %v, want %v", w.DamageCost(), SeverityHigh.Cost())
	}
	w.ResetEvents()
	if len(w.Events()) != 0 || w.DamageCost() != 0 {
		t.Error("ResetEvents did not clear the log")
	}
}

func TestSeverityAndKindStrings(t *testing.T) {
	if SeverityLow.String() != "Low" || SeverityHigh.String() != "High" ||
		SeverityMediumLow.String() != "Medium-Low" || SeverityMediumHigh.String() != "Medium-High" {
		t.Error("severity names wrong")
	}
	if SeverityHigh.Cost() <= SeverityMediumHigh.Cost() {
		t.Error("High must cost more than Medium-High")
	}
	for k := EventCollision; k <= EventDrop; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Errorf("event kind %d has no name", k)
		}
	}
	for _, f := range []FixtureKind{KindGeneric, KindDosing, KindPump, KindHotplate,
		KindThermoshaker, KindCentrifuge, KindGrid, KindDecapper, KindSpinCoater, KindNozzle} {
		if s := f.String(); s == "" || strings.HasPrefix(s, "FixtureKind(") {
			t.Errorf("fixture kind %d has no name", f)
		}
	}
}

func TestMiscAccessors(t *testing.T) {
	w := testDeck(t)
	names := w.LocationNames()
	if len(names) == 0 {
		t.Fatal("no locations")
	}
	for i := 0; i+1 < len(names); i++ {
		if names[i] > names[i+1] {
			t.Fatal("location names unsorted")
		}
	}
	if _, ok := w.LocationAt("grid_NW"); !ok {
		t.Error("LocationAt failed")
	}
	if _, ok := w.LocationAt("ghost"); ok {
		t.Error("ghost location found")
	}
	ids := w.FixtureIDs()
	if len(ids) != 3 {
		t.Errorf("fixtures = %v", ids)
	}
	open, err := w.DoorIsOpen("dosing_device")
	if err != nil || open {
		t.Errorf("door starts closed: %v %v", open, err)
	}
	if _, err := w.DoorIsOpen("ghost"); err == nil {
		t.Error("ghost door answered")
	}
	if w.MaxSeverity() != 0 {
		t.Error("pristine deck has a severity")
	}
	if _, ok := w.ObjectAtLocation("grid_NW"); !ok {
		t.Error("vial not found at grid_NW")
	}
	if _, ok := w.ObjectInsideFixture("dosing_device"); ok {
		t.Error("phantom object inside the dosing device")
	}
	w.Advance(time.Second)
	if w.Now() < time.Second {
		t.Error("Advance did not move the clock")
	}
}

func TestMultiDoorPanelsInWorld(t *testing.T) {
	w := New(1)
	f := &Fixture{
		ID: "station", Kind: KindDecapper,
		Body:     geom.Box(geom.V(0, 0, 0), geom.V(0.2, 0.2, 0.3)),
		Interior: geom.Box(geom.V(0.03, 0.03, 0.03), geom.V(0.17, 0.17, 0.27)),
		Panels: []DoorPanel{
			{Name: "west", Side: DoorXNeg},
			{Name: "east", Side: DoorXPos},
		},
	}
	if err := w.AddFixture(f); err != nil {
		t.Fatal(err)
	}
	if err := w.SetDoorNamed("station", "west", true); err != nil {
		t.Fatal(err)
	}
	if !f.Panels[0].Open || f.Panels[1].Open {
		t.Fatalf("panel states wrong: %+v", f.Panels)
	}
	if err := w.SetDoorNamed("station", "north", true); err == nil {
		t.Fatal("unknown panel accepted")
	}
	if err := w.SetDoorNamed("station", "west", false); err != nil {
		t.Fatal(err)
	}
	if f.anyDoorOpen() {
		t.Error("all panels should be closed")
	}
}
