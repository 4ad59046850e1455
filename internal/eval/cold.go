package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/kin"
	"repro/internal/labs"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/state"
)

// The cold benchmark is the adversarial counterpart of the motion
// benchmark: every command targets a point no previous command visited,
// so the verdict cache never hits and every check runs the full
// swept-volume pipeline. That isolates the cold-path geometry work the
// deck spatial index exists to cut. Three sweep implementations replay
// the identical seeded target streams:
//
//	legacy   the pre-index pipeline: whole-trajectory broadphase prune
//	         plus the iterative golden-section narrow phase — the honest
//	         before-measurement
//	brute    broadphase off: every solid tested at every sample with the
//	         exact narrow phase (the property tests' oracle)
//	indexed  the batched SoA sweep over the deck spatial index
//
// each in two contexts: serial (one arm checked at a time) and sharded
// (one goroutine per arm, exercising the index's lock-free sharing).
// All modes share one pre-warmed plan cache, so the measured check is
// the sweep, not the IK solve in front of it.

// Cold sweep modes.
const (
	ColdModeLegacy  = "legacy"
	ColdModeBrute   = "brute"
	ColdModeIndexed = "indexed"
)

// Cold check contexts.
const (
	ColdContextSerial  = "serial"
	ColdContextSharded = "sharded"
)

// ColdOptions configures the cold-path benchmark.
type ColdOptions struct {
	// Checks is how many fresh-target checks each arm performs per run.
	Checks int
	// Seed drives the target streams; every mode and context replays the
	// same streams.
	Seed int64
}

// ColdResult is one (mode, context) measurement.
type ColdResult struct {
	Mode    string
	Context string
	// Checks is the total check count across arms; Accepts is how many
	// verdicts came back clean. Accepts must agree across modes — the
	// equivalence tests pin it.
	Checks  int
	Accepts int
	Wall    time.Duration
	// P50/P95 are exact per-check latency percentiles over the raw
	// durations (the obs histogram buckets are too coarse for the ≥10x
	// claim this benchmark exists to measure).
	P50 time.Duration
	P95 time.Duration
	// Plan-cache counters prove the IK layer was warm (hits) and stayed
	// warm (no misses beyond IK-infeasible targets).
	PlanHits   int64
	PlanMisses int64
	// Broadphase and index telemetry for the measured run.
	Candidates int64
	Kept       int64
	Pruned     int64
	Rebuilds   int64
}

// coldArms orders the testbed arms the streams are generated for.
var coldArms = []string{"viperx", "ned2"}

// coldTargets builds each arm's seeded fresh-target stream: points in an
// annular shell around the arm base, comfortably inside its reach so the
// IK layer almost always solves and the sweep dominates. Targets may
// still be rejected by the sweep (a low pass over the deck, a wall
// graze) — rejects are part of the workload, and every mode must agree
// on them.
func coldTargets(arm string, checks int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed + int64(len(arm))*7919))
	rMin, rMax, zMin, zMax := 0.25, 0.50, 0.15, 0.40
	if arm == "ned2" {
		rMin, rMax, zMin, zMax = 0.18, 0.36, 0.12, 0.32
	}
	out := make([]geom.Vec3, 0, checks)
	for i := 0; i < checks; i++ {
		r := rMin + rng.Float64()*(rMax-rMin)
		th := rng.Float64() * 2 * math.Pi
		out = append(out, geom.V(r*math.Cos(th), r*math.Sin(th), zMin+rng.Float64()*(zMax-zMin)))
	}
	return out
}

// newColdSim wires a bare simulator for one mode: no engine, no rules —
// the benchmark measures ValidTrajectory alone, with the deck static so
// the deck-epoch contract is trivially honored.
func newColdSim(lab *config.Lab, mode string, pc *kin.PlanCache, reg *obs.Registry) (*sim.Simulator, error) {
	opts := []sim.Option{
		sim.WithMotionCache(true),
		sim.WithSharedPlanCache(pc),
	}
	if reg != nil {
		opts = append(opts, sim.WithObserver(reg))
	}
	switch mode {
	case ColdModeLegacy:
		opts = append(opts, sim.WithLegacySweep(true))
	case ColdModeBrute:
		opts = append(opts, sim.WithBroadphase(false))
	case ColdModeIndexed:
		// The default pipeline.
	default:
		return nil, fmt.Errorf("eval: unknown cold mode %q", mode)
	}
	return sim.New(lab, opts...)
}

// coldPercentile returns the exact p-th percentile of sorted durations.
func coldPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// runCold measures one (mode, context) cell: a fresh simulator (cold
// verdict cache) sharing the pre-warmed plan cache, replaying every
// arm's stream either serially or with one goroutine per arm.
func runCold(lab *config.Lab, mode, context string, streams map[string][]geom.Vec3,
	pc *kin.PlanCache) (*ColdResult, error) {
	reg := obs.NewRegistry("cold-" + mode + "-" + context)
	s, err := newColdSim(lab, mode, pc, reg)
	if err != nil {
		return nil, fmt.Errorf("eval: cold %s/%s: %w", mode, context, err)
	}

	total := 0
	for _, ts := range streams {
		total += len(ts)
	}
	durs := make([]time.Duration, 0, total)
	accepts := 0

	run := func(arm string, out *[]time.Duration) int {
		ok := 0
		for _, tgt := range streams[arm] {
			cmd := action.Command{Device: arm, Action: action.MoveRobot, Target: tgt}
			t0 := time.Now()
			_, err := s.ValidTrajectory(cmd, state.Snapshot(nil), otrace.SpanContext{})
			*out = append(*out, time.Since(t0))
			if err == nil {
				ok++
			}
		}
		return ok
	}

	start := time.Now()
	switch context {
	case ColdContextSerial:
		for _, arm := range coldArms {
			accepts += run(arm, &durs)
		}
	case ColdContextSharded:
		perArm := make([][]time.Duration, len(coldArms))
		oks := make([]int, len(coldArms))
		var wg sync.WaitGroup
		for i, arm := range coldArms {
			i, arm := i, arm
			perArm[i] = make([]time.Duration, 0, len(streams[arm]))
			wg.Add(1)
			go func() {
				defer wg.Done()
				oks[i] = run(arm, &perArm[i])
			}()
		}
		wg.Wait()
		for i := range coldArms {
			durs = append(durs, perArm[i]...)
			accepts += oks[i]
		}
	default:
		return nil, fmt.Errorf("eval: unknown cold context %q", context)
	}
	wall := time.Since(start)

	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return &ColdResult{
		Mode:       mode,
		Context:    context,
		Checks:     len(durs),
		Accepts:    accepts,
		Wall:       wall,
		P50:        coldPercentile(durs, 0.50),
		P95:        coldPercentile(durs, 0.95),
		PlanHits:   reg.Counter(obs.CounterPlanCacheHits).Value(),
		PlanMisses: reg.Counter(obs.CounterPlanCacheMisses).Value(),
		Candidates: reg.Counter(obs.CounterSimIndexCandidates).Value(),
		Kept:       reg.Counter(obs.CounterSimBroadphaseKept).Value(),
		Pruned:     reg.Counter(obs.CounterSimBroadphasePruned).Value(),
		Rebuilds:   reg.Counter(obs.CounterSimIndexRebuilds).Value(),
	}, nil
}

// MotionCold runs the cold-path benchmark: every mode × context over the
// identical seeded target streams, all sharing one plan cache pre-warmed
// by a throwaway replay so the measured latencies are sweep cost, not IK.
func MotionCold(o ColdOptions) ([]ColdResult, error) {
	if o.Checks <= 0 {
		o.Checks = 150
	}
	lab, err := config.Compile(labs.TestbedSpec())
	if err != nil {
		return nil, fmt.Errorf("eval: cold: %w", err)
	}
	streams := make(map[string][]geom.Vec3, len(coldArms))
	for _, arm := range coldArms {
		streams[arm] = coldTargets(arm, o.Checks, o.Seed)
	}

	// Warm the shared plan cache: plan keys are value-based (chain, from,
	// target), so solutions computed here are hits in every measurement
	// run. The mirrors stay at home (the benchmark never Observes), so
	// the measured runs replay the exact same keys.
	pc := kin.NewPlanCache(0)
	warm, err := newColdSim(lab, ColdModeIndexed, pc, nil)
	if err != nil {
		return nil, fmt.Errorf("eval: cold: %w", err)
	}
	for _, arm := range coldArms {
		for _, tgt := range streams[arm] {
			_, _ = warm.ValidTrajectory(action.Command{Device: arm, Action: action.MoveRobot, Target: tgt}, state.Snapshot(nil), otrace.SpanContext{})
		}
	}

	var out []ColdResult
	for _, mode := range []string{ColdModeLegacy, ColdModeBrute, ColdModeIndexed} {
		for _, context := range []string{ColdContextSerial, ColdContextSharded} {
			r, err := runCold(lab, mode, context, streams, pc)
			if err != nil {
				return nil, err
			}
			out = append(out, *r)
		}
	}
	return out, nil
}

// ColdSpeedup returns the legacy over indexed ratio of serial-context
// p95 check latency — the tentpole's ≥10x claim — or 0 if either row is
// missing.
func ColdSpeedup(rows []ColdResult) float64 {
	var legacy, indexed time.Duration
	for _, r := range rows {
		if r.Context != ColdContextSerial {
			continue
		}
		switch r.Mode {
		case ColdModeLegacy:
			legacy = r.P95
		case ColdModeIndexed:
			indexed = r.P95
		}
	}
	if legacy <= 0 {
		return 0
	}
	if indexed < time.Nanosecond {
		indexed = time.Nanosecond
	}
	return float64(legacy) / float64(indexed)
}

// RenderCold prints the benchmark rows.
func RenderCold(rows []ColdResult) string {
	out := fmt.Sprintf("%-8s %-8s %7s %8s %10s %10s %10s %9s %12s %9s\n",
		"Mode", "Context", "checks", "accepts", "wall", "p50", "p95",
		"plan h/m", "pruned/kept", "rebuilds")
	for _, r := range rows {
		out += fmt.Sprintf("%-8s %-8s %7d %8d %10s %10s %10s %9s %12s %9d\n",
			r.Mode, r.Context, r.Checks, r.Accepts, r.Wall.Round(time.Millisecond),
			r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
			fmt.Sprintf("%d/%d", r.PlanHits, r.PlanMisses),
			fmt.Sprintf("%d/%d", r.Pruned, r.Kept), r.Rebuilds)
	}
	if sp := ColdSpeedup(rows); sp > 0 {
		out += fmt.Sprintf("\ncold p95 speedup (legacy/indexed, serial): %.1fx\n", sp)
	}
	return out
}
