package eval

import (
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/kin"
	"repro/internal/labs"
	otrace "repro/internal/obs/trace"
	"repro/internal/state"
)

// TestMotionCold smoke-runs the cold benchmark at reduced scale and pins
// its equivalence obligations: every mode must produce the identical
// accept count on the identical streams (the verdicts are pinned
// string-for-string by the sim property tests; the benchmark re-checks
// the aggregate so a wiring bug here cannot silently compare different
// workloads), the indexed mode must actually exercise the index, and the
// plan cache must be warm.
func TestMotionCold(t *testing.T) {
	rows, err := MotionCold(ColdOptions{Checks: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	accepts := map[string]int{}
	for _, r := range rows {
		if r.Checks != 80 {
			t.Errorf("%s/%s: want 80 checks, got %d", r.Mode, r.Context, r.Checks)
		}
		if prev, ok := accepts[r.Context]; ok && prev != r.Accepts {
			t.Errorf("%s/%s: accepts %d diverges from %d on the same stream",
				r.Mode, r.Context, r.Accepts, prev)
		}
		accepts[r.Context] = r.Accepts
		if r.PlanHits == 0 {
			t.Errorf("%s/%s: plan cache never hit — warmup broken", r.Mode, r.Context)
		}
		switch r.Mode {
		case ColdModeIndexed:
			if r.Candidates == 0 {
				t.Errorf("%s/%s: index returned no candidates", r.Mode, r.Context)
			}
			if r.Rebuilds < 1 {
				t.Errorf("%s/%s: index never built", r.Mode, r.Context)
			}
		case ColdModeBrute:
			if r.Pruned != 0 || r.Kept != 0 {
				t.Errorf("%s/%s: brute mode should not prune (got %d/%d)",
					r.Mode, r.Context, r.Pruned, r.Kept)
			}
		}
	}
	if accepts[ColdContextSerial] != accepts[ColdContextSharded] {
		t.Errorf("serial accepts %d != sharded accepts %d",
			accepts[ColdContextSerial], accepts[ColdContextSharded])
	}
	if accepts[ColdContextSerial] == 0 {
		t.Error("no check accepted — target streams are degenerate")
	}
}

// BenchmarkColdIndexWarmOverhead is the warm-path regression gate: the
// verdict-cache-hit path must not slow down because the cold path behind
// it was reworked. It measures the same repeated check (a guaranteed
// cache hit after the first) under the legacy sweep and under the
// indexed default and reports the relative overhead; CI fails the build
// when it exceeds 2%, mirroring the trace-overhead gate.
func BenchmarkColdIndexWarmOverhead(b *testing.B) {
	lab, err := config.Compile(labs.TestbedSpec())
	if err != nil {
		b.Fatal(err)
	}
	cmd := action.Command{Device: "viperx", Action: action.MoveRobot, Target: geom.V(0.32, 0.22, 0.25)}
	warmNs := func(mode string, n int) float64 {
		s, err := newColdSim(lab, mode, kin.NewPlanCache(0), nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.ValidTrajectory(cmd, state.Snapshot(nil), otrace.SpanContext{}); err != nil {
			b.Fatalf("%s: unexpected verdict: %v", mode, err)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := s.ValidTrajectory(cmd, state.Snapshot(nil), otrace.SpanContext{}); err != nil {
				b.Fatalf("%s: unexpected verdict: %v", mode, err)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	n := b.N * 20000
	b.ResetTimer()
	legacy := warmNs(ColdModeLegacy, n)
	indexed := warmNs(ColdModeIndexed, n)
	b.ReportMetric(100*(indexed-legacy)/legacy, "warm-overhead-%")
	b.ReportMetric(indexed, "warm-ns/check")
}
