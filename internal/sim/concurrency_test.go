package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/labs"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/state"
)

// validate runs an untraced trajectory check and returns its error.
func validate(s *Simulator, cmd action.Command, model state.Snapshot) error {
	_, err := s.ValidTrajectory(cmd, model, otrace.SpanContext{})
	return err
}

// verdict renders a ValidTrajectory result for equality comparison.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// armScript runs a fixed command sequence against the simulator the way
// the engine does — Observe only after an accepted command — and returns
// the verdicts.
func armScript(s *Simulator, m state.Snapshot, cmds []action.Command) []string {
	out := make([]string, 0, len(cmds))
	for _, cmd := range cmds {
		err := validate(s, cmd, m)
		out = append(out, verdict(err))
		if err == nil {
			s.Observe(cmd, m)
		}
	}
	return out
}

func moveOn(arm string, target geom.Vec3) action.Command {
	return action.Command{Device: arm, Action: action.MoveRobot, Target: target}
}

// TestConcurrentChecksMatchSerial drives trajectory checks for the two
// testbed arms from concurrent goroutines (each interleaving Observe on
// its own arm, so ValidTrajectory and Observe race across arms) and
// asserts the verdicts are identical to a serial run. Run with -race this
// also proves the sharded locking has no data race.
func TestConcurrentChecksMatchSerial(t *testing.T) {
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	m := lab.InitialModelState()
	scripts := map[string][]action.Command{
		"viperx": {
			moveOn("viperx", geom.V(0.32, 0.22, 0.25)),
			moveOn("viperx", geom.V(0.35, 0.25, 0.05)), // grid collision: rejected
			moveOn("viperx", geom.V(0.15, 0.30, 0.25)),
			{Device: "viperx", Action: action.MoveHome},
			moveOn("viperx", geom.V(0.35, 0.64, 0.30)), // beyond the back wall
			{Device: "viperx", Action: action.MoveSleep},
		},
		"ned2": {
			moveOn("ned2", geom.V(-0.2, 0.2, 0.2)),
			moveOn("ned2", geom.V(-0.17, -0.22, 0.08)), // into the centrifuge half
			{Device: "ned2", Action: action.MoveHome},
			moveOn("ned2", geom.V(0.1, 0.1, 1.5)), // unplannable
			{Device: "ned2", Action: action.MoveSleep},
		},
	}

	serialSim, err := New(lab)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for arm, cmds := range scripts {
		want[arm] = armScript(serialSim, m, cmds)
	}

	concSim, err := New(lab)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for arm, cmds := range scripts {
		wg.Add(1)
		go func(arm string, cmds []action.Command) {
			defer wg.Done()
			vs := armScript(concSim, m, cmds)
			mu.Lock()
			got[arm] = vs
			mu.Unlock()
		}(arm, cmds)
	}
	// A reader hammering the mirrors while both checkers run.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_, _ = concSim.ArmTCP("viperx")
				_ = concSim.Checks()
			}
		}
	}()
	wg.Wait()
	close(done)

	for arm := range scripts {
		if len(got[arm]) != len(want[arm]) {
			t.Fatalf("%s: %d verdicts, want %d", arm, len(got[arm]), len(want[arm]))
		}
		for i := range want[arm] {
			if got[arm][i] != want[arm][i] {
				t.Errorf("%s cmd %d: concurrent verdict %q, serial %q", arm, i, got[arm][i], want[arm][i])
			}
		}
	}
	if concSim.Checks() != serialSim.Checks() {
		t.Errorf("checks = %d, want %d", concSim.Checks(), serialSim.Checks())
	}
}

// TestBroadphaseVerdictEquivalence sweeps a deterministic grid of targets
// across the deck — accepting and rejecting moves against every solid
// class (cuboid, rounded, wall, platform, unplannable) — and asserts the
// broadphase-pruned simulator returns exactly the verdicts (including
// reasons) of the unpruned one. The scenario geometry of the Table III/IV
// controlled experiments (the grid-collision move, the footnote-2
// centrifuge crossing, the wall strike) is exercised explicitly below.
func TestBroadphaseVerdictEquivalence(t *testing.T) {
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := New(lab)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(lab, WithBroadphase(false))
	if err != nil {
		t.Fatal(err)
	}
	m := lab.InitialModelState()
	// A gripped vial extends the swept volume downward.
	held := m.Clone()
	held.Set(state.Holding("viperx"), state.Bool(true))
	held.Set(state.HeldObject("viperx"), state.Str("vial_1"))

	accepts, rejects := 0, 0
	check := func(cmd action.Command, model state.Snapshot, label string) {
		t.Helper()
		vp := verdict(validate(pruned, cmd, model))
		vf := verdict(validate(full, cmd, model))
		if vp != vf {
			t.Fatalf("%s: broadphase verdict %q, unpruned %q", label, vp, vf)
		}
		if vp == "ok" {
			accepts++
			pruned.Observe(cmd, model)
			full.Observe(cmd, model)
		} else {
			rejects++
		}
	}

	for _, x := range []float64{0.12, 0.26, 0.35, 0.5, 0.63} {
		for _, y := range []float64{-0.45, -0.18, 0.05, 0.25, 0.45, 0.64} {
			for _, z := range []float64{0.04, 0.12, 0.3} {
				cmd := moveOn("viperx", geom.V(x, y, z))
				check(cmd, m, fmt.Sprintf("grid target %v", cmd.Target))
			}
		}
	}
	// Table III scenario 3: straight into the grid body.
	check(moveOn("viperx", geom.V(0.35, 0.25, 0.05)), m, "tableIII grid collision")
	// The footnote-2 mid-path centrifuge crossing.
	for _, cmd := range []action.Command{
		moveOn("viperx", geom.V(0.63, -0.38, 0.30)),
		moveOn("viperx", geom.V(0.63, -0.38, 0.12)),
		moveOn("viperx", geom.V(0.63, -0.02, 0.12)),
	} {
		check(cmd, m, fmt.Sprintf("footnote-2 leg %v", cmd.Target))
	}
	// Table V's wall hazard: hover near the wall, then pierce it.
	check(moveOn("viperx", geom.V(0.35, 0.52, 0.35)), m, "wall hover")
	check(moveOn("viperx", geom.V(0.35, 0.64, 0.30)), m, "wall strike")
	// Held-object geometry (the Bug-13 class).
	check(moveOn("viperx", geom.V(0.45, 0.10, 0.07)), held, "held vial graze")
	check(moveOn("viperx", geom.V(0.45, 0.10, 0.30)), held, "held vial clear")

	if accepts == 0 || rejects == 0 {
		t.Fatalf("degenerate sweep: %d accepts, %d rejects — wants both", accepts, rejects)
	}
}

// TestWallPlaneNonUnitNormal is the regression test for the wall-plane
// construction: a configuration supplying a scaled (non-unit) wall normal
// describes the same plane, so the simulator must reject a wall-piercing
// trajectory exactly as it does for the unit-normal form. (Previously the
// normal was normalised without rescaling the offset, silently pushing
// the wall out of reach.)
func TestWallPlaneNonUnitNormal(t *testing.T) {
	build := func(scale float64) *Simulator {
		t.Helper()
		spec := labs.TestbedSpec()
		for i := range spec.Walls {
			spec.Walls[i].Normal.X *= scale
			spec.Walls[i].Normal.Y *= scale
			spec.Walls[i].Normal.Z *= scale
			spec.Walls[i].Offset *= scale
		}
		lab, err := config.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(lab)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	unit, scaled := build(1), build(4)
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	m := lab.InitialModelState()

	hover := moveOn("viperx", geom.V(0.35, 0.52, 0.35))
	pierce := moveOn("viperx", geom.V(0.35, 0.64, 0.30))
	for name, s := range map[string]*Simulator{"unit": unit, "scaled": scaled} {
		if err := validate(s, hover, m); err != nil {
			t.Fatalf("%s: near-wall hover rejected: %v", name, err)
		}
		s.Observe(hover, m)
		err := validate(s, pierce, m)
		if err == nil {
			t.Fatalf("%s: wall-piercing move accepted", name)
		}
		if !strings.Contains(err.Error(), "wall") {
			t.Errorf("%s: violation should name the wall: %v", name, err)
		}
	}
}

// TestBroadphaseTelemetry checks the new obs instruments: prune/keep
// counters accumulate and the in-flight gauge returns to zero.
func TestBroadphaseTelemetry(t *testing.T) {
	lab, err := labs.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("sim-test")
	s, err := New(lab, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	m := lab.InitialModelState()
	if err := validate(s, moveOn("viperx", geom.V(0.32, 0.22, 0.25)), m); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.CounterSimChecks).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CounterSimChecks, got)
	}
	kept := reg.Counter(obs.CounterSimBroadphaseKept).Value()
	prunedN := reg.Counter(obs.CounterSimBroadphasePruned).Value()
	if prunedN == 0 {
		t.Error("a free move near the grid should prune at least one far solid")
	}
	if kept+prunedN == 0 {
		t.Error("broadphase counters did not accumulate")
	}
	if got := reg.Gauge(obs.GaugeSimChecksInFlight).Value(); got != 0 {
		t.Errorf("in-flight gauge = %d after checks drained, want 0", got)
	}
}
