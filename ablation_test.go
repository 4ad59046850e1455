package rabit_test

import (
	"testing"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/bugs"
	"repro/internal/config"
	"repro/internal/env"
	"repro/internal/geom"
	"repro/internal/labs"
	otrace "repro/internal/obs/trace"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/workflow"
)

// Ablation benchmarks quantify the cost and value of RABIT's individual
// design choices: target-only checking vs. full trajectory sweeping,
// held-object geometry extension, multiplexing policies, and the
// generation gap itself.

// BenchmarkAblation_TargetCheckVsSweep compares the paper's two
// collision-checking regimes on the same move: the target-only geometric
// check (deployments without a simulator) against the Extended
// Simulator's full sweep.
func BenchmarkAblation_TargetCheckVsSweep(b *testing.B) {
	sys, err := rabit.NewTestbed(rabit.Options{ExtendedSimulator: true})
	if err != nil {
		b.Fatal(err)
	}
	custom, err := sys.Lab.CustomRules()
	if err != nil {
		b.Fatal(err)
	}
	rb := rules.MustNewRulebase(sys.Lab, rules.Config{
		Generation: rules.GenModified, Multiplex: rules.MultiplexNone,
	}, custom...)
	model := sys.Engine.Model()
	cmd := action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.32, 0.22, 0.25)}

	b.Run("target-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if v := rb.Validate(model, cmd); len(v) != 0 {
				b.Fatal(v)
			}
		}
	})
	b.Run("full-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Simulator.ValidTrajectory(cmd, model, otrace.SpanContext{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_HeldObjectExtension measures what the modified
// generation's held-object geometry costs per validation — the price of
// closing the Bug-D-with-vial gap.
func BenchmarkAblation_HeldObjectExtension(b *testing.B) {
	sys, err := rabit.NewTestbed(rabit.Options{})
	if err != nil {
		b.Fatal(err)
	}
	model := sys.Engine.Model()
	model.Set(state.Holding("viperx"), state.Bool(true))
	model.Set(state.HeldObject("viperx"), state.Str("vial_1"))
	cmd := action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.32, 0.22, 0.30)}

	for _, gen := range []rules.Generation{rules.GenInitial, rules.GenModified} {
		rb := rules.MustNewRulebase(sys.Lab, rules.Config{Generation: gen, Multiplex: rules.MultiplexNone})
		b.Run(gen.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v := rb.Validate(model, cmd); len(v) != 0 {
					b.Fatal(v)
				}
			}
		})
	}
}

// BenchmarkAblation_MultiplexPolicies compares deck throughput under the
// two safe policies: time multiplexing serialises arm motion; space
// multiplexing lets both arms move concurrently inside their zones.
func BenchmarkAblation_MultiplexPolicies(b *testing.B) {
	b.Run("time", func(b *testing.B) {
		sys, err := rabit.NewTestbed(rabit.Options{Multiplex: rabit.MultiplexTime, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		// Quiesce: time multiplexing demands the other arm sleeps.
		if err := sys.Session.Arm("ned2").GoSleep(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var simTime int64
		for i := 0; i < b.N; i++ {
			before := sys.Env.Now()
			if err := sys.Session.Arm("viperx").MovePose(geom.V(0.25, 0.10, 0.25+0.02*float64(i%2))); err != nil {
				b.Fatal(err)
			}
			simTime += int64(sys.Env.Now() - before)
		}
		b.ReportMetric(float64(simTime)/float64(b.N)/1e6, "labMs/move")
	})
	b.Run("space-concurrent", func(b *testing.B) {
		sys, err := rabit.NewTestbed(rabit.Options{Multiplex: rabit.MultiplexSpace, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var simTime int64
		for i := 0; i < b.N; i++ {
			before := sys.Env.Now()
			if err := sys.Session.MoveConcurrently(map[string]geom.Vec3{
				"viperx": geom.V(0.25, 0.10, 0.25+0.02*float64(i%2)),
				"ned2":   geom.V(-0.05, 0.10, 0.25+0.02*float64(i%2)),
			}); err != nil {
				b.Fatal(err)
			}
			simTime += int64(sys.Env.Now() - before)
		}
		// Two moves complete per iteration; report lab time per move.
		b.ReportMetric(float64(simTime)/float64(b.N)/2/1e6, "labMs/move")
	})
}

// BenchmarkAblation_DetectionValue re-runs the two-arm bug under each
// configuration, reporting whether the design choice pays for itself in
// detections (the qualitative ablation: policy off → collision, policy
// on → blocked).
func BenchmarkAblation_DetectionValue(b *testing.B) {
	bug, _ := bugs.ByID(7)
	configs := []struct {
		name string
		opt  rabit.Options
	}{
		{"initial-no-mux", rabit.Options{
			Stage:      env.StageTestbed,
			Generation: rules.GenInitial,
			Multiplex:  rules.MultiplexNone,
			Seed:       1,
		}},
		{"modified-time-mux", rabit.Options{
			Stage:      env.StageTestbed,
			Generation: rules.GenModified,
			Multiplex:  rules.MultiplexTime,
			Seed:       1,
		}},
		{"modified-space-mux", rabit.Options{
			Stage:      env.StageTestbed,
			Generation: rules.GenModified,
			Multiplex:  rules.MultiplexSpace,
			Seed:       1,
		}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			detections := 0
			for i := 0; i < b.N; i++ {
				s, err := rabit.New(testbedSpec(), cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				steps := bug.Mutate(s.Session)
				_ = workflow.RunSteps(s.Session, steps)
				if len(s.Engine.Alerts()) > 0 {
					detections++
				}
				s.Close()
			}
			b.ReportMetric(float64(detections)/float64(b.N), "detected")
		})
	}
}

// testbedSpec is a terse alias for the bundled testbed deck.
func testbedSpec() *config.LabSpec { return labs.TestbedSpec() }
