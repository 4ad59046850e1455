package campaign

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/kin"
	"repro/internal/obs/recorder"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// stackRecorderDepth sizes each pooled flight-recorder ring. Campaign
// scripts are at most a few dozen commands, so a shallow ring holds a
// whole scenario — which is exactly the window a missed-injection bundle
// should freeze.
const stackRecorderDepth = 256

// stack is one reusable engine assembly: engine + extended simulator +
// flight recorder, all bound to one deck variant's rulebase and compiled
// lab. Between scenarios only the cheap state is reset (Simulator.Reset,
// Recorder.Reset, Engine.Rebind); the expensive immutables — compiled
// rules, kinematic profiles, the deck BVH, warm verdict caches — carry
// over. That carry-over is the campaign engine's whole performance story,
// and the pooled-vs-fresh equivalence test is its soundness story.
type stack struct {
	eng *core.Engine
	sm  *sim.Simulator
	rec *recorder.Recorder
}

// planCacheCapacity bounds the per-deck shared plan caches. A deck's
// scripts draw from a finite quantized grammar, so the distinct
// (start configuration, target) pairs number in the low thousands; a
// bound above that working set keeps the LRU from thrashing at 1M
// scenarios while still capping memory.
const planCacheCapacity = 8192

// exactPlanCache returns a plan cache safe to share across scenarios and
// workers: warm-start seeding is off, so a miss solves exactly what the
// cold path would and a hit replays that byte-identical answer — cache
// state can change *when* planning work happens, never its outcome.
func exactPlanCache() *kin.PlanCache {
	pc := kin.NewPlanCache(planCacheCapacity)
	pc.SetWarmStart(false)
	return pc
}

// deckRuntime owns the stack pool for one deck variant. sync.Pool gives
// work-stealing workers lock-free reuse and lets idle stacks be collected
// under memory pressure. The two shared plan caches are the pooled
// runner's cross-scenario levers: worldPlans memoizes the ground-truth
// worlds' motion plans (oracle and protected replays on the same deck
// re-solve the same quantized moves endlessly), simPlans the extended
// simulator's validation plans.
type deckRuntime struct {
	deck        *Deck
	incidentDir string
	pool        sync.Pool
	worldPlans  *kin.PlanCache
	simPlans    *kin.PlanCache
}

func newDeckRuntime(d *Deck, incidentDir string) *deckRuntime {
	return &deckRuntime{
		deck:        d,
		incidentDir: incidentDir,
		worldPlans:  exactPlanCache(),
		simPlans:    exactPlanCache(),
	}
}

func (dr *deckRuntime) get() (*stack, error) {
	if st, _ := dr.pool.Get().(*stack); st != nil {
		return st, nil
	}
	// core.New needs an environment at construction time; a throwaway
	// build seeds it and Rebind swaps in the real per-scenario world
	// before first use.
	boot, err := env.Build(dr.deck.Compiled, env.StageTestbed, 0)
	if err != nil {
		return nil, err
	}
	return newStack(dr.deck.Compiled, dr.deck.Rulebase, boot, dr.simPlans, dr.deck.Profiles, dr.incidentDir)
}

func (dr *deckRuntime) put(st *stack) { dr.pool.Put(st) }

// newStack assembles one engine stack over a lab: extended simulator
// (validating through plans, and reusing profiles for the arms it covers
// — nil solves every arm's profile afresh), flight recorder and engine.
// The pool builds one per deck and reuses it; the naive baseline builds
// one per scenario from freshly compiled parts. Speculation is off:
// campaign scripts are short and serial, so lookahead buys nothing and
// keeping the pipeline synchronous makes the quiescence contract of the
// reset path trivially true.
func newStack(lab *config.Lab, rb *rules.Rulebase, e core.Environment, plans *kin.PlanCache,
	profiles map[string]*kin.Profile, incidentDir string) (*stack, error) {
	sm, err := sim.New(lab,
		sim.WithHeldObjectAware(true),
		sim.WithMotionCache(true),
		sim.WithSharedPlanCache(plans),
		sim.WithArmProfiles(profiles))
	if err != nil {
		return nil, err
	}
	rec := recorder.New(recorder.Options{Depth: stackRecorderDepth, Dir: incidentDir})
	eng := core.New(rb, e,
		core.WithInitialModel(lab.InitialModelState()),
		core.WithSimulator(sm),
		core.WithRecorder(rec),
		core.WithSpeculation(false))
	return &stack{eng: eng, sm: sm, rec: rec}, nil
}

// run replays the scenario through the stack against world e — re-tag
// the recorder, rebind the engine, run the steps — and classifies the
// outcome: read the alert verdict and, when the oracle says unsafe but
// the checker stayed silent, freeze the scenario's command window into
// a missed-injection bundle.
func (st *stack) run(sc *Scenario, lab *config.Lab, e *env.Env, oracleUnsafe bool, detail string) (alerted bool, runErr error, filed int64) {
	st.rec.Reset(fmt.Sprintf("s%07d", sc.Index))
	st.eng.Rebind(e)
	ic := trace.NewInterceptor(st.eng, e)
	ic.SetRecorder(st.rec)
	ses := workflow.NewSession(ic, lab)
	ses.Measure = e.MeasureSolubility
	sc.ApplyLocs(ses)
	stepErr := workflow.RunSteps(ses, sc.Steps())
	alerted = len(st.eng.Alerts()) > 0
	var al *core.Alert
	if stepErr != nil && !errors.As(stepErr, &al) {
		runErr = stepErr
	}
	if oracleUnsafe && !alerted && st.rec.Dir() != "" {
		st.rec.FileSnapshot("missed_unsafe_injection", detail, e.Now().Nanoseconds())
		filed = 1
	}
	return alerted, runErr, filed
}
