package core

import (
	"fmt"
	"sort"
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
	"repro/internal/trace"
)

func mkViolation(id string, n int) rules.Violation {
	cmd := action.Command{Device: "dd", Action: action.OpenDoor}
	return rules.Violation{
		Rule:   &rules.Rule{ID: id, Scope: rules.ScopeGeneral, Number: n, Description: "desc"},
		Cmd:    cmd,
		Reason: "reason",
	}
}

func TestAlertErrorReportsTotals(t *testing.T) {
	cmd := action.Command{Device: "dd", Action: action.OpenDoor}

	one := &Alert{Kind: AlertInvalidCommand, Cmd: cmd,
		Violations: []rules.Violation{mkViolation("general-1", 1)}}
	if msg := one.Error(); strings.Contains(msg, "more") {
		t.Errorf("single violation must not claim more: %s", msg)
	}

	three := &Alert{Kind: AlertInvalidCommand, Cmd: cmd, Violations: []rules.Violation{
		mkViolation("general-1", 1), mkViolation("general-2", 2), mkViolation("general-3", 3),
	}}
	msg := three.Error()
	if !strings.Contains(msg, "general-1") {
		t.Errorf("first violation must be spelled out: %s", msg)
	}
	if strings.Contains(msg, "general-2") {
		t.Errorf("later violations should be counted, not spelled out: %s", msg)
	}
	if !strings.Contains(msg, "(and 2 more violations)") {
		t.Errorf("missing total violation count: %s", msg)
	}

	two := &Alert{Kind: AlertMalfunction, Cmd: cmd, Mismatches: []state.Mismatch{
		{Key: state.DoorStatus("dd"), Expected: state.Bool(true), Actual: state.Bool(false)},
		{Key: state.Running("dd"), Expected: state.Bool(false), Actual: state.Bool(true)},
	}}
	if msg := two.Error(); !strings.Contains(msg, "(and 1 more mismatch)") {
		t.Errorf("missing mismatch count: %s", msg)
	}
}

func TestEngineStageTelemetry(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{}}
	reg := obs.NewRegistry("t")
	e := newEngine(env, WithObserver(reg), WithSimulator(&fakeSim{}))

	move := action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0, 0.2)}
	if err := e.Before(move); err != nil {
		t.Fatal(err)
	}
	if err := e.After(move); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, stage := range []string{obs.StageValidate, obs.StageTrajectory, obs.StageFetch, obs.StageCompare} {
		hs, ok := snap.Histogram(stage)
		if !ok || hs.Count != 1 {
			t.Errorf("stage %s histogram count = %+v (ok=%v), want 1", stage, hs, ok)
		}
	}
	d, n := e.CheckOverhead()
	if n != 1 || d <= 0 {
		t.Fatalf("CheckOverhead = (%v, %d)", d, n)
	}
	if got := snap.Counter(obs.CounterCommands); got != 1 {
		t.Errorf("commands counter = %d, want 1", got)
	}
	// The registry counter IS the CheckOverhead source of truth.
	if got := reg.Counter(obs.CounterCheckNS).Value(); got != d.Nanoseconds() {
		t.Errorf("check.ns counter = %d, CheckOverhead = %d", got, d.Nanoseconds())
	}
	if e.Obs() != reg {
		t.Error("Obs() must return the attached registry")
	}
}

func TestEngineAlertTelemetry(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{
		state.DoorStatus("dd"): state.Bool(true),
		state.Running("dd"):    state.Bool(true),
	}}
	reg := obs.NewRegistry("t")
	e := newEngine(env, WithObserver(reg))

	if err := e.Before(action.Command{Device: "dd", Action: action.OpenDoor}); err == nil {
		t.Fatal("invalid command accepted")
	}
	if got := reg.Counter(obs.PrefixAlerts + "invalid_command").Value(); got != 1 {
		t.Errorf("alert counter = %d, want 1", got)
	}
	if got := reg.Counter(obs.PrefixViolations + "general-10").Value(); got != 1 {
		t.Errorf("violation counter = %d, want 1", got)
	}
}

func TestEngineWithoutObserver(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{}}
	e := newEngine(env, WithObserver(nil))
	cmd := action.Command{Device: "dd", Action: action.CloseDoor}
	if err := e.Before(cmd); err != nil {
		t.Fatal(err)
	}
	if err := e.After(cmd); err != nil {
		t.Fatal(err)
	}
	// Instrumentation off: nothing accumulates, nothing panics.
	if d, n := e.CheckOverhead(); d != 0 || n != 0 {
		t.Errorf("disabled telemetry still accumulated: (%v, %d)", d, n)
	}
	if e.Obs() != nil {
		t.Error("Obs() should be nil when disabled")
	}
}

// benchSnapshot builds an observed state sized so a full Before+After
// check costs what the real testbed deck's does (~35µs/cmd, per
// `rabiteval -latency`): the check's cost is dominated by snapshot
// clone/merge/compare, which scales with the variable count.
func benchSnapshot() state.Snapshot {
	s := state.Snapshot{}
	for i := 0; i < 96; i++ {
		s.Set(state.DoorStatus(fmt.Sprintf("aux%02d", i)), state.Bool(i%2 == 0))
	}
	return s
}

func benchEngineChecks(b *testing.B, opts ...Option) {
	env := &fakeEnv{observed: benchSnapshot()}
	e := newEngine(env, opts...)
	cmd := action.Command{Device: "dd", Action: action.CloseDoor}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Before(cmd); err != nil {
			b.Fatal(err)
		}
		if err := e.After(cmd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead measures one full engine check (Before+After)
// with instrumentation on (the default) and off (WithObserver(nil)).
// The telemetry budget is <1% of a check (~350ns of the real testbed
// deck's ~35µs).
//
// The separate instrumented/bare legs are what `benchstat` wants, but
// a check allocates ~29KB (snapshot clone/merge), so GC pauses and
// scheduler drift swamp a sub-µs delta in both run-to-run means and a
// paired mean. The paired leg therefore interleaves the two engines in
// one loop and compares the *median* per-check time of each — robust
// to pause outliers — reporting the difference as delta-ns/op and
// overhead-%.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("instrumented", func(b *testing.B) { benchEngineChecks(b) })
	b.Run("bare", func(b *testing.B) { benchEngineChecks(b, WithObserver(nil)) })
	b.Run("paired", func(b *testing.B) {
		instrumented := newEngine(&fakeEnv{observed: benchSnapshot()})
		bare := newEngine(&fakeEnv{observed: benchSnapshot()}, WithObserver(nil))
		cmd := action.Command{Device: "dd", Action: action.CloseDoor}
		check := func(e *Engine) {
			if err := e.Before(cmd); err != nil {
				b.Fatal(err)
			}
			if err := e.After(cmd); err != nil {
				b.Fatal(err)
			}
		}
		deltaNS := make([]int64, b.N)
		bareNS := make([]int64, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate which engine goes first so cache-warming and
			// GC-assist effects don't systematically favor one leg.
			first, second := instrumented, bare
			if i%2 == 1 {
				first, second = bare, instrumented
			}
			t0 := time.Now()
			check(first)
			t1 := time.Now()
			check(second)
			t2 := time.Now()
			di, db := t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
			if i%2 == 1 {
				di, db = db, di
			}
			deltaNS[i] = di - db
			bareNS[i] = db
		}
		b.StopTimer()
		median := func(s []int64) float64 {
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			return float64(s[len(s)/2])
		}
		md, mb := median(deltaNS), median(bareNS)
		b.ReportMetric(md, "delta-ns/op")
		b.ReportMetric(100*md/mb, "overhead-%")
	})
}

func TestEngineStartResetsAlertCounters(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{
		state.DoorStatus("dd"): state.Bool(true),
		state.Running("dd"):    state.Bool(true),
	}}
	reg := obs.NewRegistry("t")
	e := newEngine(env, WithObserver(reg))
	if err := e.Before(action.Command{Device: "dd", Action: action.OpenDoor}); err == nil {
		t.Fatal("invalid command accepted")
	}
	alertC := reg.Counter(obs.PrefixAlerts + "invalid_command")
	violC := reg.Counter(obs.PrefixViolations + "general-10")
	if alertC.Value() != 1 || violC.Value() != 1 {
		t.Fatalf("alert/violation counters = %d/%d, want 1/1", alertC.Value(), violC.Value())
	}
	// A restarted run must not inherit the previous run's alert totals —
	// including the dynamically named families Registry.Reset can't see.
	env.observed.Set(state.Running("dd"), state.Bool(false))
	e.Start()
	if alertC.Value() != 0 || violC.Value() != 0 {
		t.Errorf("counters after restart = %d/%d, want 0/0",
			alertC.Value(), violC.Value())
	}
	if len(e.Alerts()) != 0 {
		t.Errorf("alerts after restart: %v", e.Alerts())
	}
}

// TestOneNumberPerStage drives a sharded command, a global command and
// a motion command through an interceptor with the tracer and flight
// recorder on, and checks that every stage reports one duration: the
// stage histogram's sum delta, the flight record's span field and the
// retained trace span agree to the nanosecond. The intercept stage has
// no record field, so its histogram is checked against the root span.
func TestOneNumberPerStage(t *testing.T) {
	env := &fakeEnv{observed: state.Snapshot{}}
	reg := obs.NewRegistry("t")
	tr := otrace.NewTracer(otrace.Options{SampleRate: 1, Seed: 1})
	rec := recorder.New(recorder.Options{Depth: 64})
	e := newEngine(env, WithObserver(reg), WithSimulator(&fakeSim{}), WithTracer(tr), WithRecorder(rec))
	ic := trace.NewInterceptor(e, env)
	ic.SetObserver(reg)
	ic.SetTracer(tr)
	ic.SetRecorder(rec)

	recordNS := map[string]func(recorder.Spans) int64{
		obs.StageValidate:   func(s recorder.Spans) int64 { return s.ValidateNS },
		obs.StageTrajectory: func(s recorder.Spans) int64 { return s.TrajectoryNS },
		obs.StageFetch:      func(s recorder.Spans) int64 { return s.FetchNS },
		obs.StageCompare:    func(s recorder.Spans) int64 { return s.CompareNS },
		obs.StageExecute:    func(s recorder.Spans) int64 { return s.ExecNS },
		obs.StageIntercept:  nil,
	}
	for _, tc := range []struct {
		name    string
		cmd     action.Command
		sharded bool
	}{
		{"sharded", action.Command{Device: "dd", Action: action.OpenDoor}, true},
		{"global", action.Command{Device: "dd", Action: action.CloseDoor}, false},
		{"motion", action.Command{Device: "arm", Action: action.MoveRobot, Target: geom.V(0.2, 0, 0.2)}, false},
	} {
		if got := e.routeSharded(tc.cmd); got != tc.sharded {
			t.Fatalf("%s: routeSharded = %v, want %v", tc.name, got, tc.sharded)
		}
		before := map[string]time.Duration{}
		for stage := range recordNS {
			before[stage] = reg.Histogram(stage).Sum()
		}
		if err := ic.Do(tc.cmd); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		id, retained := ic.FinishTrace()
		if !retained {
			t.Fatalf("%s: trace not retained", tc.name)
		}
		spans := map[string]otrace.SpanData{}
		for _, sd := range tr.Find(id).Spans {
			spans[sd.Name] = sd
		}
		win := rec.Window()
		last := win[len(win)-1]
		if last.Device != tc.cmd.Device || last.Outcome != "ok" {
			t.Fatalf("%s: last record %+v is not the command's", tc.name, last)
		}
		for stage, field := range recordNS {
			hist := (reg.Histogram(stage).Sum() - before[stage]).Nanoseconds()
			sd, ok := spans[stage]
			if stage == obs.StageTrajectory && tc.name != "motion" {
				if hist != 0 || ok || last.Spans.TrajectoryNS != 0 {
					t.Errorf("%s: non-motion command timed a trajectory stage", tc.name)
				}
				continue
			}
			if !ok {
				t.Errorf("%s: no %s span retained", tc.name, stage)
				continue
			}
			span := sd.End.Sub(sd.Start).Nanoseconds()
			if hist != span {
				t.Errorf("%s: %s histogram %dns, span %dns", tc.name, stage, hist, span)
			}
			if field != nil && field(last.Spans) != hist {
				t.Errorf("%s: %s record %dns, histogram %dns", tc.name, stage, field(last.Spans), hist)
			}
		}
	}
}
