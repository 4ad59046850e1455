package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
	"repro/internal/state"
)

// epochSim is a fakeSim that also carries a deck epoch and records
// speculative lookaheads, standing in for sim.Simulator's fast path.
type epochSim struct {
	fakeSim
	mu    sync.Mutex
	epoch uint64
	specs []specCall
	block chan struct{} // when non-nil, SpeculateAfter waits on it
}

type specCall struct {
	prior, next action.Command
	model       state.Snapshot
	epoch       uint64
	corr        string
	parent      otrace.SpanContext
}

func (f *epochSim) DeckEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

func (f *epochSim) BumpDeckEpoch() {
	f.mu.Lock()
	f.epoch++
	f.mu.Unlock()
}

func (f *epochSim) SpeculateAfter(prior, next action.Command, model state.Snapshot,
	epoch uint64, corr string, parent otrace.SpanContext) bool {
	if f.block != nil {
		<-f.block
	}
	f.mu.Lock()
	f.specs = append(f.specs, specCall{prior: prior, next: next, model: model, epoch: epoch, corr: corr, parent: parent})
	f.mu.Unlock()
	return true
}

func (f *epochSim) speculations() []specCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]specCall(nil), f.specs...)
}

func TestCommitBumpsEpochOnDeckRelevantChange(t *testing.T) {
	sim := &epochSim{}
	env := &fakeEnv{observed: state.Snapshot{state.DoorStatus("dd"): state.Bool(false)}}
	e := newEngine(env, WithSimulator(sim))
	if got := sim.DeckEpoch(); got != 1 {
		t.Fatalf("Start should bump the epoch once (model rebuilt), got %d", got)
	}

	// Opening the door changes deviceDoorStatus — deck-relevant — so the
	// commit must bump.
	open := action.Command{Device: "dd", Action: action.OpenDoor}
	if err := e.Before(open); err != nil {
		t.Fatal(err)
	}
	env.observed.Set(state.DoorStatus("dd"), state.Bool(true))
	if err := e.After(open); err != nil {
		t.Fatal(err)
	}
	if got := sim.DeckEpoch(); got != 2 {
		t.Fatalf("door open did not bump the epoch: %d", got)
	}

	// A robot move changes only non-deck variables (arm location tags):
	// no bump, or repeated motion would defeat the verdict cache.
	mv := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0.1, 0.2)}
	if err := e.Before(mv); err != nil {
		t.Fatal(err)
	}
	if err := e.After(mv); err != nil {
		t.Fatal(err)
	}
	if got := sim.DeckEpoch(); got != 2 {
		t.Fatalf("deck-neutral move bumped the epoch: %d", got)
	}

	// Closing the door bumps again.
	closeCmd := action.Command{Device: "dd", Action: action.CloseDoor}
	if err := e.Before(closeCmd); err != nil {
		t.Fatal(err)
	}
	env.observed.Set(state.DoorStatus("dd"), state.Bool(false))
	if err := e.After(closeCmd); err != nil {
		t.Fatal(err)
	}
	if got := sim.DeckEpoch(); got != 3 {
		t.Fatalf("door close did not bump the epoch: %d", got)
	}
}

func TestOverlayChangesDeck(t *testing.T) {
	model := state.Snapshot{
		state.DoorStatus("dd"): state.Bool(false),
		state.Running("dd"):    state.Bool(false),
	}
	flip := state.NewOverlay(model)
	flip.Set(state.DoorStatus("dd"), state.Bool(true))
	if !overlayChangesDeck(flip, model) {
		t.Error("door flip not detected as a deck change")
	}
	same := state.NewOverlay(model)
	same.Set(state.DoorStatus("dd"), state.Bool(false)) // no-op write
	same.Set(state.Running("dd"), state.Bool(true))     // non-deck change
	if overlayChangesDeck(same, model) {
		t.Error("no-op and non-deck edits misread as a deck change")
	}
	del := state.NewOverlay(model)
	del.Delete(state.DoorStatus("dd"))
	if !overlayChangesDeck(del, model) {
		t.Error("deck-relevant delete not detected")
	}
}

func TestHintRunsSpeculativeLookahead(t *testing.T) {
	sim := &epochSim{}
	env := &fakeEnv{observed: state.Snapshot{state.DoorStatus("dd"): state.Bool(false)}}
	e := newEngine(env, WithSimulator(sim))

	cur := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0.1, 0.2)}
	next := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.3, 0.1, 0.2)}
	e.Hint(cur, next)
	e.WaitSpeculation()
	specs := sim.speculations()
	if len(specs) != 1 {
		t.Fatalf("speculations = %d, want 1", len(specs))
	}
	if specs[0].epoch != sim.DeckEpoch() {
		t.Errorf("speculation captured epoch %d, current %d", specs[0].epoch, sim.DeckEpoch())
	}
	// Without a recorder or tracer the call is untagged and unparented.
	if specs[0].corr != "" || specs[0].parent != (otrace.SpanContext{}) {
		t.Errorf("untraced speculation got corr %q parent %+v, want both zero", specs[0].corr, specs[0].parent)
	}
	if _, ok := specs[0].model[state.DoorStatus("dd")]; !ok {
		t.Error("speculation model clone is missing the engine's model facts")
	}
	// The clone must be isolated: mutating it does not touch the engine's
	// model.
	specs[0].model.Set(state.DoorStatus("dd"), state.Bool(true))
	if e.Model().GetBool(state.DoorStatus("dd")) {
		t.Error("speculation model clone aliases the engine model")
	}
	if got := e.Obs().Counter(obs.CounterSpeculations).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CounterSpeculations, got)
	}

	// A non-motion successor is not worth speculating.
	e.Hint(cur, action.Command{Device: "dd", Action: action.OpenDoor})
	e.WaitSpeculation()
	if got := len(sim.speculations()); got != 1 {
		t.Errorf("non-motion hint speculated (%d)", got)
	}
}

// TestHintPassesCorrAndSpan: with a recorder and a tracer attached, Hint
// hands the simulator the speculation record's correlation ID and the
// "speculate" span's context, so the cached verdict and its child spans
// are attributable to the lookahead that produced them.
func TestHintPassesCorrAndSpan(t *testing.T) {
	sim := &epochSim{}
	env := &fakeEnv{observed: state.Snapshot{state.DoorStatus("dd"): state.Bool(false)}}
	tr := otrace.NewTracer(otrace.Options{SampleRate: 1, Seed: 1})
	rec := recorder.New(recorder.Options{Depth: 64})
	e := newEngine(env, WithSimulator(sim), WithTracer(tr), WithRecorder(rec))

	cur := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0.1, 0.2), Seq: 1}
	next := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.3, 0.1, 0.2), Seq: 2}
	id := tr.StartTrace()
	root := tr.StartRoot(id, "command", time.Now())
	tr.Bind(cur.Device, cur.Seq, root.Context())
	e.Hint(cur, next)
	e.WaitSpeculation()
	tr.Unbind(cur.Device, cur.Seq)
	root.End()
	tr.FinishTrace(id)

	specs := sim.speculations()
	if len(specs) != 1 {
		t.Fatalf("speculations = %d, want 1", len(specs))
	}
	var specRec *recorder.Record
	win := rec.Window()
	for i := range win {
		if win[i].Kind == recorder.KindSpeculation {
			specRec = &win[i]
		}
	}
	if specRec == nil {
		t.Fatal("no speculation record in the window")
	}
	if specs[0].corr == "" || specs[0].corr != specRec.Corr {
		t.Errorf("speculation corr %q, want the record's %q", specs[0].corr, specRec.Corr)
	}
	td := tr.Find(id)
	if td == nil {
		t.Fatal("trace not retained")
	}
	var sspan *otrace.SpanData
	for i := range td.Spans {
		if td.Spans[i].Name == "speculate" {
			sspan = &td.Spans[i]
		}
	}
	if sspan == nil || !specs[0].parent.Valid() || specs[0].parent != sspan.Context() {
		t.Errorf("speculation parent %+v is not the speculate span (%+v)", specs[0].parent, sspan)
	}
}

func TestHintSingleFlightDropsOverlappingHints(t *testing.T) {
	sim := &epochSim{block: make(chan struct{})}
	env := &fakeEnv{observed: state.Snapshot{state.DoorStatus("dd"): state.Bool(false)}}
	e := newEngine(env, WithSimulator(sim))

	cur := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0.1, 0.2)}
	next := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.3, 0.1, 0.2)}
	e.Hint(cur, next) // parked inside SpeculateAfter on the block channel
	e.Hint(cur, next) // must be dropped, not queued
	close(sim.block)
	e.WaitSpeculation()
	if got := len(sim.speculations()); got != 1 {
		t.Errorf("speculations = %d, want 1 (second hint dropped)", got)
	}
	if got := e.Obs().Counter(obs.CounterSpeculationsDropped).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CounterSpeculationsDropped, got)
	}
	// After the worker drains, hints flow again.
	e.Hint(cur, next)
	e.WaitSpeculation()
	if got := len(sim.speculations()); got != 2 {
		t.Errorf("speculations = %d, want 2 after drain", got)
	}
}

func TestSpeculationDisabledPaths(t *testing.T) {
	cur := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0.1, 0.2)}
	next := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.3, 0.1, 0.2)}

	// WithSpeculation(false): epochs still bump, hints are ignored.
	sim := &epochSim{}
	env := &fakeEnv{observed: state.Snapshot{state.DoorStatus("dd"): state.Bool(false)}}
	e := newEngine(env, WithSimulator(sim), WithSpeculation(false))
	e.Hint(cur, next)
	e.WaitSpeculation()
	if got := len(sim.speculations()); got != 0 {
		t.Errorf("disabled engine speculated (%d)", got)
	}
	if sim.DeckEpoch() == 0 {
		t.Error("WithSpeculation(false) must not disable epoch bumping")
	}

	// A simulator without the fast-path surfaces: Hint is a safe no-op.
	plain := &fakeSim{}
	e2 := newEngine(&fakeEnv{observed: state.Snapshot{}}, WithSimulator(plain))
	e2.Hint(cur, next) // must not panic
	e2.WaitSpeculation()
}
