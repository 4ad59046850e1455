package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
	"repro/internal/rules"
	"repro/internal/state"
)

// fakeEnv scripts a minimal environment: commands either succeed or fail,
// and FetchState returns a programmable snapshot.
type fakeEnv struct {
	observed state.Snapshot
	execErr  error
	executed []action.Command
	now      time.Duration
}

func (f *fakeEnv) Execute(cmd action.Command) error {
	f.executed = append(f.executed, cmd)
	f.now += time.Second
	return f.execErr
}

func (f *fakeEnv) FetchState() state.Snapshot { return f.observed.Clone() }
func (f *fakeEnv) Now() time.Duration         { return f.now }

// fakeLab is a minimal LabModel: one arm, one door device, no geometry.
type fakeLab struct{}

var _ rules.LabModel = fakeLab{}

func (fakeLab) DeviceType(id string) (rules.DeviceType, bool) {
	switch id {
	case "arm":
		return rules.TypeRobotArm, true
	case "dd":
		return rules.TypeDosingSystem, true
	default:
		return 0, false
	}
}
func (fakeLab) DeviceHasDoor(id string) bool { return id == "dd" }
func (fakeLab) DeviceDoors(id string) []string {
	if id == "dd" {
		return []string{""}
	}
	return nil
}
func (fakeLab) LocationDoor(loc string) string                     { return "" }
func (fakeLab) ArmIDs() []string                                   { return []string{"arm"} }
func (fakeLab) LocationOwner(loc string) (string, bool)            { return "", false }
func (fakeLab) LocationIsInside(loc string) bool                   { return false }
func (fakeLab) LocationPos(a, l string) (geom.Vec3, bool)          { return geom.Vec3{}, false }
func (fakeLab) MatchLocation(a string, p geom.Vec3) (string, bool) { return "", false }
func (fakeLab) DeviceBoxes(a string) []rules.NamedBox              { return nil }
func (fakeLab) SleepBox(a, o string) (geom.AABB, bool)             { return geom.AABB{}, false }
func (fakeLab) ArmGeometry(a string) rules.ArmGeom                 { return rules.ArmGeom{} }
func (fakeLab) HostsContainers(id string) bool                     { return false }
func (fakeLab) ObjectGeometry(id string) (rules.ObjectGeom, bool)  { return rules.ObjectGeom{}, false }
func (fakeLab) ActionThreshold(id string) (float64, bool)          { return 0, false }
func (fakeLab) FloorZ(a string) float64                            { return -10 }
func (fakeLab) Walls(a string) []geom.Plane                        { return nil }
func (fakeLab) Zone(a string) (geom.Plane, bool)                   { return geom.Plane{}, false }

// fakeSim scripts trajectory validation and records the parent span
// context each check received.
type fakeSim struct {
	err      error
	verdict  recorder.Verdict
	checked  []action.Command
	parents  []otrace.SpanContext
	observed []action.Command
}

func (f *fakeSim) ValidTrajectory(cmd action.Command, model state.Snapshot, parent otrace.SpanContext) (recorder.Verdict, error) {
	f.checked = append(f.checked, cmd)
	f.parents = append(f.parents, parent)
	return f.verdict, f.err
}

func (f *fakeSim) Observe(cmd action.Command, model state.Snapshot) {
	f.observed = append(f.observed, cmd)
}

func newEngine(env Environment, opts ...Option) *Engine {
	rb := rules.MustNewRulebase(fakeLab{}, rules.Config{Generation: rules.GenInitial})
	e := New(rb, env, opts...)
	e.Start()
	return e
}

func TestEngineHappyCommand(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{state.DoorStatus("dd"): state.Bool(false)}}
	e := newEngine(env)
	cmd := action.Command{Device: "dd", Action: action.OpenDoor}
	if err := e.Before(cmd); err != nil {
		t.Fatal(err)
	}
	env.observed.Set(state.DoorStatus("dd"), state.Bool(true)) // the door physically opened
	if err := e.After(cmd); err != nil {
		t.Fatal(err)
	}
	if got := e.Model().GetBool(state.DoorStatus("dd")); !got {
		t.Error("model did not commit the new door state")
	}
	if len(e.Alerts()) != 0 {
		t.Errorf("unexpected alerts: %v", e.Alerts())
	}
}

func TestEngineInvalidCommandAlert(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{
		state.DoorStatus("dd"): state.Bool(true),
		state.Running("dd"):    state.Bool(true),
	}}
	e := newEngine(env)
	// Opening a door while the device runs violates rule 10.
	err := e.Before(action.Command{Device: "dd", Action: action.OpenDoor})
	if err == nil {
		t.Fatal("invalid command accepted")
	}
	alert, ok := AsAlert(err)
	if !ok || alert.Kind != AlertInvalidCommand {
		t.Fatalf("want invalid-command alert, got %v", err)
	}
	if len(alert.Violations) == 0 || alert.Violations[0].Rule.ID != "general-10" {
		t.Errorf("violations wrong: %v", alert.Violations)
	}
	if e.Stopped() == nil {
		t.Error("experiment should be stopped")
	}
}

func TestEngineStopLatches(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{
		state.DoorStatus("dd"): state.Bool(true),
		state.Running("dd"):    state.Bool(true),
	}}
	e := newEngine(env)
	_ = e.Before(action.Command{Device: "dd", Action: action.OpenDoor})
	err := e.Before(action.Command{Device: "dd", Action: action.CloseDoor})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	// Start clears the latch.
	env.observed.Set(state.Running("dd"), state.Bool(false))
	e.Start()
	if err := e.Before(action.Command{Device: "dd", Action: action.OpenDoor}); err != nil {
		t.Fatalf("restart failed: %v", err)
	}
}

func TestEngineMalfunctionAlert(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{state.DoorStatus("dd"): state.Bool(false)}}
	e := newEngine(env)
	cmd := action.Command{Device: "dd", Action: action.OpenDoor}
	if err := e.Before(cmd); err != nil {
		t.Fatal(err)
	}
	// The door does NOT move (stuck motor): observed stays closed.
	err := e.After(cmd)
	if err == nil {
		t.Fatal("malfunction went unnoticed")
	}
	alert, ok := AsAlert(err)
	if !ok || alert.Kind != AlertMalfunction {
		t.Fatalf("want malfunction alert, got %v", err)
	}
	if len(alert.Mismatches) != 1 || alert.Mismatches[0].Key != state.DoorStatus("dd") {
		t.Errorf("mismatches wrong: %v", alert.Mismatches)
	}
}

func TestEngineUnobservedVariablesDoNotAlert(t *testing.T) {
	// Holding is dead-reckoned; FetchState never reports it, so the
	// model's belief can never raise a malfunction.
	env := &fakeEnv{observed: state.Snapshot{}}
	e := newEngine(env, WithInitialModel(state.Snapshot{
		state.Holding("arm"):  state.Bool(false),
		state.ObjectAt("loc"): state.Str("vial"),
		state.ArmAt("arm"):    state.Str("loc"),
	}))
	e.Start()
	cmd := action.Command{Device: "arm", Action: action.CloseGripper}
	if err := e.Before(cmd); err != nil {
		t.Fatal(err)
	}
	if err := e.After(cmd); err != nil {
		t.Fatal(err)
	}
	if !e.Model().GetBool(state.Holding("arm")) {
		t.Error("model should believe the arm now holds the vial")
	}
}

func TestEngineTrajectoryValidatorWiring(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{}}
	sim := &fakeSim{}
	e := newEngine(env, WithSimulator(sim))
	move := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0, 0.2)}
	if err := e.Before(move); err != nil {
		t.Fatal(err)
	}
	if err := e.After(move); err != nil {
		t.Fatal(err)
	}
	if len(sim.checked) != 1 || len(sim.observed) != 1 {
		t.Fatalf("simulator hooks: checked=%d observed=%d", len(sim.checked), len(sim.observed))
	}
	// Without a tracer the one check runs under a zero parent.
	if sim.parents[0] != (otrace.SpanContext{}) {
		t.Errorf("untraced check got parent %+v, want zero", sim.parents[0])
	}
	// Non-motion commands bypass the simulator.
	door := action.Command{Device: "dd", Action: action.OpenDoor}
	if err := e.Before(door); err != nil {
		t.Fatal(err)
	}
	if len(sim.checked) != 1 {
		t.Error("non-motion command reached the simulator")
	}

	// With a tracer and a recorder attached, the one check runs under the
	// command's trajectory span and its verdict lands in the command's
	// flight record.
	want := recorder.Verdict{Source: recorder.SourceSpeculative, EpochAtValidation: 7, SpecCorr: "s-9"}
	sim = &fakeSim{verdict: want}
	tr := otrace.NewTracer(otrace.Options{SampleRate: 1, Seed: 1})
	rec := recorder.New(recorder.Options{Depth: 64})
	e = newEngine(env, WithSimulator(sim), WithTracer(tr), WithRecorder(rec))
	move.Seq = 1
	id := tr.StartTrace()
	root := tr.StartRoot(id, "command", time.Now())
	tr.Bind(move.Device, move.Seq, root.Context())
	if err := e.Before(move); err != nil {
		t.Fatal(err)
	}
	if err := e.After(move); err != nil {
		t.Fatal(err)
	}
	tr.Unbind(move.Device, move.Seq)
	root.End()
	tr.FinishTrace(id)

	if len(sim.checked) != 1 {
		t.Fatalf("traced checks = %d, want exactly 1", len(sim.checked))
	}
	parent := sim.parents[0]
	if !parent.Valid() || parent.Trace != id {
		t.Fatalf("traced check got parent %+v, want a span in trace %v", parent, id)
	}
	td := tr.Find(id)
	if td == nil {
		t.Fatal("trace not retained")
	}
	var traj *otrace.SpanData
	for i := range td.Spans {
		if td.Spans[i].Name == obs.StageTrajectory {
			traj = &td.Spans[i]
		}
	}
	if traj == nil || traj.Context() != parent {
		t.Errorf("check parent %+v is not the %s span (%+v)", parent, obs.StageTrajectory, traj)
	}
	win := rec.Window()
	if len(win) != 1 {
		t.Fatalf("recorder window = %d records, want 1", len(win))
	}
	if win[0].Verdict != want {
		t.Errorf("recorded verdict %+v, want the simulator's %+v", win[0].Verdict, want)
	}
}

func TestEngineInvalidTrajectoryAlert(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{}}
	sim := &fakeSim{err: errors.New("collides with grid")}
	e := newEngine(env, WithSimulator(sim))
	err := e.Before(action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0, 0.2)})
	alert, ok := AsAlert(err)
	if !ok || alert.Kind != AlertInvalidTrajectory {
		t.Fatalf("want invalid-trajectory alert, got %v", err)
	}
	if !strings.Contains(alert.Error(), "Invalid trajectory!") {
		t.Errorf("alert text: %s", alert.Error())
	}
}

func TestEngineFailSafeHook(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{
		state.DoorStatus("dd"): state.Bool(true),
		state.Running("dd"):    state.Bool(true),
	}}
	var got []Alert
	e := newEngine(env, WithFailSafe(func(a Alert) { got = append(got, a) }))
	_ = e.Before(action.Command{Device: "dd", Action: action.OpenDoor})
	if len(got) != 1 || got[0].Kind != AlertInvalidCommand {
		t.Fatalf("fail-safe hook got %v", got)
	}
}

func TestEngineConcurrentBatchExpectations(t *testing.T) {
	// Two Befores chain into one cumulative expectation settled by a
	// single After — the DoConcurrent contract.
	env := &fakeEnv{observed: state.Snapshot{}}
	e := newEngine(env)
	c1 := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0, 0.2)}
	c2 := action.Command{Device: "dd", Action: action.OpenDoor}
	if err := e.Before(c1); err != nil {
		t.Fatal(err)
	}
	if err := e.Before(c2); err != nil {
		t.Fatal(err)
	}
	env.observed.Set(state.DoorStatus("dd"), state.Bool(true))
	if err := e.After(c2); err != nil {
		t.Fatal(err)
	}
	m := e.Model()
	if !m.GetBool(state.DoorStatus("dd")) {
		t.Error("cumulative expectation lost the door effect")
	}
	if m.GetBool(state.ArmAsleep("arm")) {
		t.Error("cumulative expectation lost the move effect")
	}
}

func TestEngineRequiresStart(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{}}
	rb := rules.MustNewRulebase(fakeLab{}, rules.Config{Generation: rules.GenInitial})
	e := New(rb, env)
	if err := e.Before(action.Command{Device: "dd", Action: action.OpenDoor}); err == nil {
		t.Fatal("unstarted engine accepted a command")
	}
}

func TestEngineOverheadAccounting(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{}}
	e := newEngine(env)
	cmd := action.Command{Device: "dd", Action: action.CloseDoor}
	for i := 0; i < 10; i++ {
		if err := e.Before(cmd); err != nil {
			t.Fatal(err)
		}
		if err := e.After(cmd); err != nil {
			t.Fatal(err)
		}
	}
	d, n := e.CheckOverhead()
	if n != 10 {
		t.Errorf("commands = %d, want 10", n)
	}
	if d <= 0 {
		t.Error("check time not accounted")
	}
}

func TestAlertKindStrings(t *testing.T) {
	if AlertInvalidCommand.String() != "Invalid Command!" ||
		AlertInvalidTrajectory.String() != "Invalid trajectory!" ||
		AlertMalfunction.String() != "Device malfunction!" {
		t.Error("alert strings do not match Fig. 2")
	}
}

func TestEngineAfterStoppedNotCounted(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{
		state.DoorStatus("dd"): state.Bool(true),
		state.Running("dd"):    state.Bool(true),
	}}
	e := newEngine(env)
	ok := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0, 0.2)}
	if err := e.Before(ok); err != nil {
		t.Fatal(err)
	}
	if err := e.After(ok); err != nil {
		t.Fatal(err)
	}
	// Raise an alert: opening the door while the device runs.
	bad := action.Command{Device: "dd", Action: action.OpenDoor}
	if err := e.Before(bad); err == nil {
		t.Fatal("invalid command accepted")
	}
	// The executor's deferred After still fires after the alert; its
	// ErrStopped early-return must not count as a processed command.
	if err := e.After(bad); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if _, n := e.CheckOverhead(); n != 1 {
		t.Errorf("commands = %d after stopped After, want 1", n)
	}
}
