// Package rabit_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation. Each benchmark both times
// the underlying machinery and (under -v) logs the paper-style rows it
// reproduces; EXPERIMENTS.md records the paper-vs-measured comparison.
package rabit_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/env"
	"repro/internal/eval"
	"repro/internal/geom"
	otrace "repro/internal/obs/trace"
	"repro/internal/radmine"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/workflow"
)

var logOnce sync.Map

// logOncePerBench logs a rendered table exactly once per benchmark name.
func logOncePerBench(b *testing.B, text string) {
	b.Helper()
	if _, dup := logOnce.LoadOrStore(b.Name(), true); !dup {
		b.Log("\n" + text)
	}
}

// BenchmarkTableI_StageCapabilities regenerates Table I: the capability
// profile of the Simulator, Testbed, and Production stages (speed of
// exploration, device precision/quality, accuracy of results, risk of
// damage).
func BenchmarkTableI_StageCapabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.TableI(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		logOncePerBench(b, eval.RenderTableI(rows))
	}
}

// BenchmarkTableII_TransitionTable regenerates Table II: evaluating the
// state transition table's preconditions and applying its postconditions
// for the robot-arm action rows the paper shows.
func BenchmarkTableII_TransitionTable(b *testing.B) {
	sys, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var rendered string
	for _, e := range rules.TransitionTable() {
		rendered += fmt.Sprintf("%-60s | pre: %v | action: %s | post: %v\n",
			e.Example, e.Preconditions, e.ActionLabel, e.Postconditions)
	}
	logOncePerBench(b, rendered)
	model := sys.Lab.InitialModelState()
	cmd := action.Command{Device: "viperx", Action: action.MoveRobotInside,
		InsideDevice: "dosing_device", TargetName: "dd_pickup"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rules.Apply(model, cmd, sys.Lab)
	}
}

// BenchmarkTableIII_GeneralRules regenerates Table III's controlled
// experiments: one deliberately unsafe scenario per general rule, all
// detected.
func BenchmarkTableIII_GeneralRules(b *testing.B) {
	benchControlled(b, "III")
}

// BenchmarkTableIV_CustomRules regenerates Table IV's controlled
// experiments for the Hein custom rules.
func BenchmarkTableIV_CustomRules(b *testing.B) {
	benchControlled(b, "IV")
}

func benchControlled(b *testing.B, table string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		results, err := eval.RunControlled("testbed", env.StageTestbed, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		rendered := ""
		detected := 0
		total := 0
		for _, r := range results {
			if r.Scenario.Table != table {
				continue
			}
			total++
			mark := "MISSED"
			if r.Detected && r.RuleHit {
				mark = "DETECTED"
				detected++
			}
			rendered += fmt.Sprintf("%2d  %-70s %s\n", r.Scenario.Number, r.Scenario.Name, mark)
		}
		rendered += fmt.Sprintf("Table %s: %d/%d rules detected\n", table, detected, total)
		logOncePerBench(b, rendered)
		if detected != total {
			b.Fatalf("table %s: %d/%d detected; the paper reports all", table, detected, total)
		}
	}
}

// BenchmarkTableV_BugStudy regenerates Table V and the Section IV
// detection progression: the 16-bug naive-programmer study under the
// initial, modified, and modified+simulator configurations.
func BenchmarkTableV_BugStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := eval.RunBugStudy(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		rendered := fmt.Sprintf("%-14s %6s %9s\n", "Severity", "Total", "Detected")
		for _, r := range st.TableV() {
			rendered += fmt.Sprintf("%-14s %6d %9d\n", r.Severity, r.Total, r.Detected)
		}
		rendered += fmt.Sprintf("detection: initial %d/16 (%.0f%%), modified %d/16 (%.0f%%), +simulator %d/16 (%.0f%%)\n",
			st.DetectedCount(eval.ConfigInitial), st.DetectionRate(eval.ConfigInitial),
			st.DetectedCount(eval.ConfigModified), st.DetectionRate(eval.ConfigModified),
			st.DetectedCount(eval.ConfigModifiedSim), st.DetectionRate(eval.ConfigModifiedSim))
		logOncePerBench(b, rendered)
	}
}

// BenchmarkFig2_EngineCheck micro-benchmarks the Fig. 2 algorithm's
// per-command cost: Valid + UpdateState + the post-state comparison.
func BenchmarkFig2_EngineCheck(b *testing.B) {
	sys, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cmd := action.Command{Device: "dosing_device", Action: action.OpenDoor}
	closeCmd := action.Command{Device: "dosing_device", Action: action.CloseDoor}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cmd
		if i%2 == 1 {
			c = closeCmd
		}
		if err := sys.Engine.Before(c); err != nil {
			b.Fatal(err)
		}
		if err := sys.Env.Execute(c); err != nil {
			b.Fatal(err)
		}
		if err := sys.Engine.After(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_ExtendedSimulator benchmarks one trajectory validation in
// the Extended Simulator (headless), the Fig. 3 collision check.
func BenchmarkFig3_ExtendedSimulator(b *testing.B) {
	sys, err := rabit.NewTestbed(rabit.Options{ExtendedSimulator: true})
	if err != nil {
		b.Fatal(err)
	}
	model := sys.Engine.Model()
	cmd := action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.32, 0.22, 0.25)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Simulator.ValidTrajectory(cmd, model, otrace.SpanContext{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_ExtendedSimulatorGUI is the same check with the GUI
// rendering every sweep sample — the deployment whose overhead the paper
// measured at 112%.
func BenchmarkFig3_ExtendedSimulatorGUI(b *testing.B) {
	sys, err := rabit.NewTestbed(rabit.Options{ExtendedSimulator: true, SimulatorGUI: true})
	if err != nil {
		b.Fatal(err)
	}
	model := sys.Engine.Model()
	cmd := action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.32, 0.22, 0.25)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Simulator.ValidTrajectory(cmd, model, otrace.SpanContext{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimBroadphase measures the trajectory check with the swept-
// volume broadphase pruning on (the default) and off — the win comes from
// skipping narrow-phase capsule sweeps against solids the trajectory's
// AABB can never reach.
func BenchmarkSimBroadphase(b *testing.B) {
	for _, bp := range []struct {
		name    string
		enabled bool
	}{{"on", true}, {"off", false}} {
		b.Run(bp.name, func(b *testing.B) {
			sys, err := rabit.NewTestbed(rabit.Options{ExtendedSimulator: true})
			if err != nil {
				b.Fatal(err)
			}
			sys.Simulator.SetBroadphase(bp.enabled)
			model := sys.Engine.Model()
			cmd := action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.32, 0.22, 0.25)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Simulator.ValidTrajectory(cmd, model, otrace.SpanContext{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimParallel measures trajectory checks for the testbed's two
// arms issued from one goroutine (serial) versus one goroutine per arm
// (parallel) — the per-arm lock sharding lets the checks overlap, so the
// parallel leg's ns/op should approach half the serial leg's.
func BenchmarkSimParallel(b *testing.B) {
	cmds := []action.Command{
		{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.32, 0.22, 0.25)},
		{Device: "ned2", Action: action.MoveRobot, Target: geom.V(0.2, 0.1, 0.15)},
	}
	newSim := func(b *testing.B) (*rabit.System, state.Snapshot) {
		b.Helper()
		sys, err := rabit.NewTestbed(rabit.Options{ExtendedSimulator: true})
		if err != nil {
			b.Fatal(err)
		}
		return sys, sys.Engine.Model()
	}
	b.Run("serial", func(b *testing.B) {
		sys, model := newSim(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Simulator.ValidTrajectory(cmds[i%2], model, otrace.SpanContext{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("twoArms", func(b *testing.B) {
		sys, model := newSim(b)
		b.ResetTimer()
		var wg sync.WaitGroup
		for _, cmd := range cmds {
			wg.Add(1)
			go func(cmd action.Command) {
				defer wg.Done()
				for i := 0; i < b.N/2; i++ {
					if _, err := sys.Simulator.ValidTrajectory(cmd, model, otrace.SpanContext{}); err != nil {
						b.Error(err)
						return
					}
				}
			}(cmd)
		}
		wg.Wait()
	})
}

// BenchmarkFig5_SafeWorkflow runs the complete Fig. 5 testbed workflow
// under the modified RABIT — the paper's baseline safe execution.
func BenchmarkFig5_SafeWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := rabit.NewTestbed(rabit.Options{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := rabit.RunSteps(sys.Session, rabit.Fig5Workflow()); err != nil {
			b.Fatal(err)
		}
		if len(sys.Alerts()) != 0 {
			b.Fatal("false positive in the safe workflow")
		}
	}
}

// BenchmarkFig5_BugsABC replays the paper's annotated Fig. 5 bugs (A, B,
// C) under the modified configuration and logs their outcomes.
func BenchmarkFig5_BugsABC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := eval.RunBugStudy(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		rendered := ""
		for _, spec := range []struct {
			id    int
			label string
		}{{1, "Bug A (door-open omitted)"}, {7, "Bug B (ned2 random move)"}, {14, "Bug C (pick-up omitted)"}} {
			o, _ := st.Outcome(spec.id)
			rendered += fmt.Sprintf("%-28s initial=%v modified=%v +sim=%v\n", spec.label,
				o.Detected[eval.ConfigInitial], o.Detected[eval.ConfigModified], o.Detected[eval.ConfigModifiedSim])
		}
		logOncePerBench(b, rendered)
	}
}

// BenchmarkFig6_BugD replays the Fig. 6 coordinate-edit bug (the held
// vial crashing into the tray) across the three configurations.
func BenchmarkFig6_BugD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := eval.RunBugStudy(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		withVial, _ := st.Outcome(13)
		bare, _ := st.Outcome(9)
		rendered := fmt.Sprintf(
			"Bug D bare gripper:  initial=%v modified=%v\nBug D holding vial:  initial=%v modified=%v (ground truth: %v)\n",
			bare.Detected[eval.ConfigInitial], bare.Detected[eval.ConfigModified],
			withVial.Detected[eval.ConfigInitial], withVial.Detected[eval.ConfigModified],
			withVial.GroundTruthDamage)
		logOncePerBench(b, rendered)
	}
}

// BenchmarkLatencyOverhead regenerates the Section II-C latency numbers:
// RABIT's checking overhead relative to paced command execution, without
// the simulator (paper: 1.5%) and with its GUI (paper: 112%).
func BenchmarkLatencyOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Latency(int64(i+1), 2000)
		if err != nil {
			b.Fatal(err)
		}
		logOncePerBench(b, eval.RenderLatency(rows))
		b.ReportMetric(rows[0].OverheadPct, "noSim-%")
		b.ReportMetric(rows[len(rows)-1].OverheadPct, "guiSim-%")
	}
}

// BenchmarkRADMining regenerates the Section II-A rule-gathering step:
// synthesising a RAD-style corpus and mining it for implied rules.
func BenchmarkRADMining(b *testing.B) {
	corpus, lab, err := radmine.GenerateCorpus([]int64{1, 2, 3})
	if err != nil {
		b.Fatal(err)
	}
	miner := radmine.NewMiner(lab)
	rendered := ""
	for _, m := range miner.Mine(corpus) {
		rendered += m.String() + "\n"
	}
	logOncePerBench(b, rendered)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := miner.Mine(corpus); len(got) == 0 {
			b.Fatal("mining found nothing")
		}
	}
}

// BenchmarkRuleValidation micro-benchmarks one full rulebase validation
// pass (the hot path of Fig. 2 line 6).
func BenchmarkRuleValidation(b *testing.B) {
	sys, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		b.Fatal(err)
	}
	model := sys.Engine.Model()
	custom, err := sys.Lab.CustomRules()
	if err != nil {
		b.Fatal(err)
	}
	rb := rules.MustNewRulebase(sys.Lab, rules.Config{
		Generation: rules.GenModified, Multiplex: rules.MultiplexTime,
	}, custom...)
	cmd := action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.32, 0.22, 0.25)}
	model.Set(state.ArmAsleep("ned2"), state.Bool(true))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := rb.Validate(model, cmd); len(v) != 0 {
			b.Fatalf("unexpected violation: %v", v)
		}
	}
}

// BenchmarkEngineThroughput is the replay-throughput benchmark: G
// concurrent experiment scripts replay paced command streams against one
// engine, comparing the seed's single-lock deployment (all scripts
// behind one shared interceptor — the only safe concurrent use of the
// serial pipeline) against the sharded per-device pipeline. The headline
// metric is commands fully processed per second of wall clock.
func BenchmarkEngineThroughput(b *testing.B) {
	var mu sync.Mutex
	var rows []eval.ThroughputResult
	for _, mode := range []struct {
		name   string
		serial bool
	}{{"serial", true}, {"sharded", false}} {
		for _, scripts := range []int{1, 4, 16} {
			mode, scripts := mode, scripts
			b.Run(fmt.Sprintf("%s/scripts=%d", mode.name, scripts), func(b *testing.B) {
				var commands int
				var wall time.Duration
				var last eval.ThroughputResult
				for i := 0; i < b.N; i++ {
					res, err := eval.Throughput(eval.ThroughputOptions{
						Scripts:           scripts,
						CommandsPerScript: 40,
						Speedup:           200,
						System:            rabit.Options{SerialPipeline: mode.serial, Seed: int64(i + 1)},
					})
					if err != nil {
						b.Fatal(err)
					}
					commands += res.Commands
					wall += res.Wall
					last = *res
				}
				if wall > 0 {
					b.ReportMetric(float64(commands)/wall.Seconds(), "cmds/s")
				}
				mu.Lock()
				rows = append(rows, last)
				mu.Unlock()
			})
		}
	}
	logOncePerBench(b, eval.RenderThroughput(rows))
}

// BenchmarkLabeledObsOverhead measures what the labeled observability
// plane (per-rule eval/fire counters, eval-latency histograms, near-miss
// margin histograms) adds to a paced command stream, in the same
// relative-to-paced-wall terms as the paper's Section II-C overhead
// numbers. The CI gate holds the reported labeled-% at ≤2.
func BenchmarkLabeledObsOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(noMetrics bool) *eval.ThroughputResult {
			res, err := eval.Throughput(eval.ThroughputOptions{
				Scripts:           4,
				CommandsPerScript: 40,
				Speedup:           200,
				System:            rabit.Options{NoRuleMetrics: noMetrics, Seed: int64(i + 1)},
			})
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		off := run(true)
		on := run(false)
		// The labeled plane's cost is the growth in RABIT's mean checking
		// time per command; pacing dominates the denominator exactly as it
		// does in a real lab, so the percentage is the production-facing
		// number.
		wallPerCmd := off.Wall.Seconds() / float64(off.Commands)
		delta := (on.CheckPerCommand - off.CheckPerCommand).Seconds()
		pct := 100 * delta / wallPerCmd
		if pct < 0 {
			pct = 0 // timing jitter: the labeled run checked faster
		}
		logOncePerBench(b, fmt.Sprintf(
			"labeled observability: check/cmd %v (off) → %v (on), paced wall/cmd %.3fms, overhead %.3f%%\n",
			off.CheckPerCommand, on.CheckPerCommand, 1000*wallPerCmd, pct))
		b.ReportMetric(pct, "labeled-%")
	}
}

// BenchmarkSolubilityWorkflow runs the Fig. 1(b) production experiment
// end-to-end under RABIT.
func BenchmarkSolubilityWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := rabit.NewHeinProduction(rabit.Options{
			Stage: rabit.StageProduction, Multiplex: rabit.MultiplexNone, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := workflow.RunSolubility(sys.Session, workflow.DefaultSolubilityParams())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Dissolved {
			b.Fatal("solid did not dissolve")
		}
	}
}
