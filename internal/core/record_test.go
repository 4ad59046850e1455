package core

import (
	"reflect"
	"testing"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/obs/recorder"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/trace"
)

// TestRecorderAddsNoAllocations runs command cycles through an
// interceptor and engine with and without a flight recorder: the
// recorder captures raw facts into pooled handles and ring-owned slots,
// so it must not add a single allocation per cycle. The sharded cycle
// works one action device; the door cycle mixes both pipelines (OpenDoor
// shards, CloseDoor takes the global path).
func TestRecorderAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under the race detector")
	}
	cycles := map[string][]action.Command{
		"sharded": {
			{Device: "d0", Action: action.SetActionValue, Value: 50},
			{Device: "d0", Action: action.StartAction},
			{Device: "d0", Action: action.StopAction},
		},
		"door": {
			{Device: "dd", Action: action.OpenDoor},
			{Device: "dd", Action: action.CloseDoor},
		},
	}
	allocs := func(t *testing.T, cycle []action.Command, rec *recorder.Recorder) float64 {
		env := newConcEnv()
		env.st.Set(state.DoorStatus("dd"), state.Bool(false))
		env.st.Set(state.Running("d0"), state.Bool(false))
		env.st.Set(state.ActionValue("d0"), state.Float(0))
		rb := rules.MustNewRulebase(fleetLab{n: 1}, rules.Config{Generation: rules.GenInitial})
		opts := []Option{WithoutRuleMetrics()}
		if rec != nil {
			opts = append(opts, WithRecorder(rec))
		}
		e := New(rb, env, opts...)
		e.Start()
		ic := trace.NewInterceptor(e, env)
		ic.SetRecorder(rec)
		run := func() {
			for _, cmd := range cycle {
				if err := ic.Do(cmd); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Fill the ring, so every measured push reuses a slot's arrays.
		for i := 0; i < recorder.DefaultDepth; i++ {
			run()
		}
		return testing.AllocsPerRun(200, run)
	}
	for name, cycle := range cycles {
		t.Run(name, func(t *testing.T) {
			off := allocs(t, cycle, nil)
			on := allocs(t, cycle, recorder.New(recorder.Options{}))
			if on != off {
				t.Errorf("allocs per %s cycle: %v with the recorder, %v without", name, on, off)
			}
		})
	}
}

// TestViewIndexFollowsModelKeys commits commands that delete a model key
// (a raw move forgets the arm's location) and add keys (a fetch reports
// variables the model has not seen), checking after each that views
// captured through the engine's incrementally kept index equal views
// captured by scanning the model.
func TestViewIndexFollowsModelKeys(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{state.DoorStatus("dd"): state.Bool(false)}}
	e := newEngine(env, WithRecorder(recorder.New(recorder.Options{})),
		WithInitialModel(state.Snapshot{state.ArmAt("arm"): state.Str("home")}))
	agree := func(step string) {
		t.Helper()
		r := recorder.New(recorder.Options{})
		scopes := [][]string{{"arm"}, {"dd"}, {"dd", "arm"}, {"zone"}}
		for i, ids := range scopes {
			for _, ix := range []*recorder.ViewIndex{e.views, nil} {
				a := r.Begin(action.Command{Device: "x", Action: action.ReadStatus, Seq: i}, recorder.PathGlobal)
				a.CapturePre(e.model, ix, ids)
				a.Commit()
				a.Release()
			}
		}
		w := r.Window()
		for i := range scopes {
			if indexed, scanned := w[2*i].Pre, w[2*i+1].Pre; !reflect.DeepEqual(indexed, scanned) {
				t.Errorf("%s, scope %v: indexed view %v, scanned %v", step, scopes[i], indexed, scanned)
			}
		}
	}
	cycle := func(cmd action.Command) {
		t.Helper()
		if err := e.Before(cmd); err != nil {
			t.Fatal(err)
		}
		if err := e.After(cmd); err != nil {
			t.Fatal(err)
		}
	}
	agree("start")
	cycle(action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0, 0.2)})
	if _, ok := e.Model()[state.ArmAt("arm")]; ok {
		t.Fatal("raw move kept the arm's location; the test needs a deleting commit")
	}
	agree("after a deleting commit")
	env.observed.Set(state.ZoneOccupied("zone"), state.Bool(false))
	env.observed.Set(state.MakeKey("deviceTemp", "dd"), state.Float(21))
	cycle(action.Command{Device: "dd", Action: action.ReadStatus})
	agree("after an adding commit")
}
