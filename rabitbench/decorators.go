package main

import (
	"runtime"
	"time"

	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/trace"
)

// Verdicts a generated command is labelled with.
const (
	verdictOK                = "ok"
	verdictInvalidCommand    = "invalid_command"
	verdictInvalidTrajectory = "invalid_trajectory"
)

// verdictOf maps an interceptor result onto a verdict: ok, the alert's
// kind, or "error:" plus the error for anything that is not a RABIT
// alert (a transport or execution failure never matches a label).
func verdictOf(err error) string {
	if err == nil {
		return verdictOK
	}
	if a, ok := core.AsAlert(err); ok {
		return a.Kind.Slug()
	}
	return "error: " + err.Error()
}

// checker decorates the engine at the trace.Checker boundary: it times
// Before and After into the script's probe. It embeds *core.Engine so
// the interceptor still finds the engine's Hint (trace.Hinter).
type checker struct {
	*core.Engine
	p  *probe
	st *stageReader
}

// stageReader reads the engine's stage histograms around each checker
// call. With one script whose speculation has settled before each
// command, a histogram's sum grows across the call by exactly that
// command's stage time, so these are exact per-command samples — still
// program-measured, since the stages run inside the engine. The
// trajectory stage becomes a sim.validate span under core.before.
type stageReader struct {
	validate, trajectory, compare *obs.Histogram
	validateNS, simNS, compareNS  samples
}

func newStageReader(reg *obs.Registry) *stageReader {
	return &stageReader{
		validate:   reg.Histogram(obs.StageValidate),
		trajectory: reg.Histogram(obs.StageTrajectory),
		compare:    reg.Histogram(obs.StageCompare),
	}
}

func (c *checker) Before(cmd action.Command) error {
	var v0, t0 time.Duration
	if c.st != nil {
		v0, t0 = c.st.validate.Sum(), c.st.trajectory.Sum()
	}
	m := c.p.begin(layerBefore)
	err := c.Engine.Before(cmd)
	c.p.checkNS += c.p.end(m)
	if c.st != nil {
		c.st.validateNS = append(c.st.validateNS, int64(c.st.validate.Sum()-v0))
		if d := int64(c.st.trajectory.Sum() - t0); d > 0 {
			c.st.simNS = append(c.st.simNS, d)
			c.p.add(layerSim, m.start, m.start+d)
		}
	}
	return err
}

func (c *checker) After(cmd action.Command) error {
	var c0 time.Duration
	if c.st != nil {
		c0 = c.st.compare.Sum()
	}
	m := c.p.begin(layerAfter)
	err := c.Engine.After(cmd)
	c.p.checkNS += c.p.end(m)
	if c.st != nil {
		c.st.compareNS = append(c.st.compareNS, int64(c.st.compare.Sum()-c0))
	}
	return err
}

// report records the per-command stage samples, replacing the
// histogram estimates programStages made.
func (st *stageReader) report(rep *report) {
	q := func(name string, s samples, p99 bool) {
		if len(s) == 0 {
			return
		}
		rep.set(name+".p50", "us", us(s.quantile(0.5)), len(s), programMeasured)
		if p99 && highestTail(len(s)) >= 0.99 {
			rep.set(name+".p99", "us", us(s.quantile(0.99)), len(s), programMeasured)
		}
	}
	q("rules.validate_us", st.validateNS, false)
	q("state.compare_us", st.compareNS, false)
	q("sim.validate_us", st.simNS, true)
}

// executor decorates the interceptor's trace.Executor (the lab).
type executor struct {
	trace.Executor
	p *probe
}

func (x *executor) Execute(cmd action.Command) error {
	m := x.p.begin(layerExecute)
	err := x.Executor.Execute(cmd)
	x.p.end(m)
	return err
}

// engineEnv decorates the engine's core.ScopedEnvironment, attached
// with Engine.Rebind. A fetch is charged to the probe that owns one of
// the fetched devices (scripts own disjoint devices), or to fallback for
// a whole-deck fetch; fetches no probe owns are not recorded.
type engineEnv struct {
	core.ScopedEnvironment
	owners   map[string]*probe
	fallback *probe
}

func (e *engineEnv) FetchState() state.Snapshot {
	p := e.fallback
	if p == nil {
		return e.ScopedEnvironment.FetchState()
	}
	m := p.begin(layerFetch)
	s := e.ScopedEnvironment.FetchState()
	p.end(m)
	return s
}

func (e *engineEnv) FetchStateScoped(ids []string) state.Snapshot {
	var p *probe
	for _, id := range ids {
		if p = e.owners[id]; p != nil {
			break
		}
	}
	if p == nil {
		return e.ScopedEnvironment.FetchStateScoped(ids)
	}
	m := p.begin(layerFetch)
	s := e.ScopedEnvironment.FetchStateScoped(ids)
	p.end(m)
	return s
}

// procStats is a process memory and GC reading.
type procStats struct {
	mallocs, bytes uint64
	pauseNS        uint64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pauseNS: ms.PauseTotalNs}
}

// setProcess records allocation and GC metrics between two readings.
func (r *report) setProcess(from, to procStats, ops int64) {
	if ops <= 0 {
		return
	}
	r.set("process.allocs_per_op", "count", float64(to.mallocs-from.mallocs)/float64(ops), 0, "")
	r.set("process.alloc_bytes_per_op", "B", float64(to.bytes-from.bytes)/float64(ops), 0, "")
	r.set("process.gc_pause_ms", "ms", float64(to.pauseNS-from.pauseNS)/1e6, 0, "")
}

// liveHeapMB forces collections and returns the live Go heap in MiB,
// less harnessBytes — the benchmark's own sample buffers, which would
// otherwise grow with throughput. The second collection empties the
// sync.Pool victim caches, whose contents depend on when the first one
// ran.
func liveHeapMB(harnessBytes int64) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-harnessBytes) / (1 << 20)
}

// engineTotals accumulates the engine-owned counters Engine.Start
// resets, so a workload that restarts the engine can read whole-run
// totals: add them before each restart and once at the end.
type engineTotals struct {
	checkNS  time.Duration
	commands int64
	evals    int64
}

func (t *engineTotals) add(e *core.Engine) {
	d, n := e.CheckOverhead()
	t.checkNS += d
	t.commands += int64(n)
	if fam, ok := e.Obs().Snapshot().Family(obs.FamilyRuleEvals); ok {
		for _, c := range fam.Counters {
			t.evals += c.Value
		}
	}
}

// programStages reads the engine's stage histograms and counters into
// the per-layer metrics that only the program can measure: rule
// validation, state comparison, trajectory validation and the cache,
// index and telemetry counters. Histogram percentiles are interpolated
// within fixed 1-2-5 buckets, and Engine.Start resets them, so a
// workload that restarts the engine uses a stageReader instead.
func (r *report) programStages(reg *obs.Registry, totals engineTotals) {
	hist := func(name, stage string, p99 bool) {
		h := reg.Histogram(stage)
		if h.Count() == 0 {
			return
		}
		r.set(name+".p50", "us", us(int64(h.P50())), int(h.Count()), programMeasured)
		if p99 {
			r.set(name+".p99", "us", us(int64(h.P99())), int(h.Count()), programMeasured)
		}
	}
	hist("rules.validate_us", obs.StageValidate, false)
	hist("state.compare_us", obs.StageCompare, false)
	hist("sim.validate_us", obs.StageTrajectory, true)

	snap := reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counter(name)) }
	count := func(name string, v float64) { r.set(name, "count", v, 0, programMeasured) }
	if totals.commands > 0 {
		count("rules.evals_per_cmd", float64(totals.evals)/float64(totals.commands))
	}
	count("core.speculations", c(obs.CounterSpeculations))
	count("core.speculation_hits", float64(snap.Gauge(obs.GaugeSpeculationHits)))
	count("core.speculations_dropped", c(obs.CounterSpeculationsDropped))
	if checks := c(obs.CounterSimChecks); checks > 0 {
		count("sim.collision_checks", checks)
		count("geom.candidates_per_check", c(obs.CounterSimIndexCandidates)/checks)
	}
	count("sim.epoch_bumps", c(obs.CounterDeckEpochBumps))
	hits, misses := c(obs.CounterVerdictCacheHits), c(obs.CounterVerdictCacheMisses)
	if hits+misses > 0 {
		r.set("sim.verdict_hit_ratio", "ratio", hits/(hits+misses), 0, programMeasured)
	}
	ph, pm := c(obs.CounterPlanCacheHits), c(obs.CounterPlanCacheMisses)
	if ph+pm > 0 {
		r.set("kin.plan_hit_ratio", "ratio", ph/(ph+pm), 0, programMeasured)
		count("kin.plan_misses", pm)
		count("kin.warm_starts", c(obs.CounterPlanCacheWarmStarts))
	}
	pruned, kept := c(obs.CounterSimBroadphasePruned), c(obs.CounterSimBroadphaseKept)
	if pruned+kept > 0 {
		r.set("geom.prune_ratio", "ratio", pruned/(pruned+kept), 0, programMeasured)
	}
	count("obs.recorder_records", c(obs.CounterRecorderRecords))
	count("obs.traces_retained", c(obs.CounterTracesRetained))
	count("obs.spans_dropped", c(obs.CounterTraceSpansDropped))
}

// overheadGap reconciles the engine's own check accounting with the
// benchmark's: 1 − (CheckOverhead mean ÷ the mean Before + After time
// measured at the trace.Checker boundary over the same commands).
// Positive means the engine does not account for part of the check time
// its caller pays.
func (r *report) overheadGap(totals engineTotals, outsideNS, outsideN int64) {
	if totals.commands == 0 || outsideN == 0 || outsideNS == 0 {
		return
	}
	inside := float64(totals.checkNS) / float64(totals.commands)
	outside := float64(outsideNS) / float64(outsideN)
	r.set("core.overhead_gap", "ratio", 1-inside/outside, int(outsideN), programMeasured)
	r.infof("reconciliation: engine CheckOverhead mean %.2f us over %d commands; Before+After at the Checker boundary mean %.2f us over %d",
		inside/1e3, totals.commands, outside/1e3, outsideN)
}
