package rabit

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/labs"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// Stage selects the deployment stage of the paper's Table I.
type Stage = env.Stage

// The three stages.
const (
	StageSimulator  = env.StageSimulator
	StageTestbed    = env.StageTestbed
	StageProduction = env.StageProduction
)

// Generation selects the RABIT iteration (Section IV's narrative).
type Generation = rules.Generation

// Generations.
const (
	GenInitial  = rules.GenInitial
	GenModified = rules.GenModified
)

// MultiplexPolicy selects the two-arm safety policy.
type MultiplexPolicy = rules.MultiplexPolicy

// Multiplexing policies.
const (
	MultiplexNone  = rules.MultiplexNone
	MultiplexTime  = rules.MultiplexTime
	MultiplexSpace = rules.MultiplexSpace
)

// Alert is a raised safety alert (Fig. 2's three alert kinds).
type Alert = core.Alert

// AsAlert extracts an Alert from an error chain.
func AsAlert(err error) (*Alert, bool) { return core.AsAlert(err) }

// ErrDraining is returned for commands submitted after Drain: the
// engine's admission gate rejected them before any check or execution.
var ErrDraining = core.ErrDraining

// Step is one named line of an experiment script.
type Step = workflow.Step

// Session is the scripting handle: wrappers for arms, devices, and vials.
type Session = workflow.Session

// RunSteps executes a scripted workflow, stopping at the first error.
func RunSteps(s *Session, steps []Step) error { return workflow.RunSteps(s, steps) }

// Fig5Workflow returns the paper's safe testbed workflow (Fig. 5).
func Fig5Workflow() []Step { return workflow.Fig5Workflow() }

// Options configures a System.
type Options struct {
	// Stage selects the deployment stage (default: testbed).
	Stage Stage
	// Generation selects the RABIT iteration (default: modified).
	Generation Generation
	// Multiplex selects the two-arm policy for the modified generation
	// (default: time multiplexing).
	Multiplex MultiplexPolicy
	// Unprotected disables RABIT entirely (commands execute unchecked),
	// for baseline and ground-truth runs.
	Unprotected bool
	// ExtendedSimulator attaches trajectory validation (Fig. 3).
	ExtendedSimulator bool
	// SimulatorGUI renders every collision check to an offscreen
	// framebuffer, reproducing the paper's GUI-dominated overhead.
	SimulatorGUI bool
	// NoMotionCache disables the motion-planning fast path — the
	// simulator's IK plan cache and epoch-keyed verdict cache, and with
	// them the engine's speculative lookahead — which is otherwise
	// enabled whenever the extended simulator is attached. Benchmarks use
	// it as the before/after switch; the caches are verdict-preserving
	// (see internal/sim's equivalence property tests), so correctness
	// never requires it.
	NoMotionCache bool
	// NoSpeculation keeps the caches but disables the engine's
	// speculative lookahead worker.
	NoSpeculation bool
	// IncidentDir is where the flight recorder writes incident bundles
	// (one self-contained directory of JSONL records + manifest per
	// alert). Empty keeps the black-box ring in memory only.
	IncidentDir string
	// IncidentTag is folded into bundle names and manifests — the eval
	// harness tags each bug injection's bundles with the bug slug.
	IncidentTag string
	// NoRecorder disables the flight recorder entirely. The recorder is
	// otherwise always on: its steady-state cost is bounded ring writes
	// (see BenchmarkRecorderOverhead).
	NoRecorder bool
	// FailSafe is invoked on every alert (Section II-B's alternative to
	// preemptively freezing).
	FailSafe func(Alert)
	// SerialPipeline forces every command through the engine's global
	// single-lock pipeline (the seed design), disabling per-device
	// sharding. Parity tests and throughput baselines use it.
	SerialPipeline bool
	// NoTracing disables the causal tracer. Tracing is otherwise always
	// on: span emission rides on clock reads the pipeline already makes
	// (see BenchmarkTraceOverhead) and tail sampling bounds retention.
	NoTracing bool
	// TraceFile, when set, streams every retained trace to this path as
	// OTLP-JSON lines (one ExportTraceServiceRequest per line — the same
	// format /traces serves and `rabiteval -trace` renders). The System
	// owns the file; Close flushes and closes it.
	TraceFile string
	// TraceExporter receives retained traces when TraceFile is empty.
	// The caller owns it: Close never closes an injected exporter.
	TraceExporter otrace.Exporter
	// TraceSampleRate overrides the tail-sampling probability for
	// non-alert traces (default otrace.DefaultSampleRate; negative
	// retains alert traces only; alert traces are always retained).
	TraceSampleRate float64
	// NoRuleMetrics disables per-rule instrumentation (evaluation/fire
	// counts, eval-latency and near-miss-margin histograms). The labeled
	// series are otherwise always on; the overhead benchmark uses this
	// as its before/after switch.
	NoRuleMetrics bool
	// Tenant labels this system's safety SLOs with a lab-tenant name:
	// the gateway sets it per lab so each tenant's burn rates export as
	// rabit_slo_burn_rate{slo="…",tenant="…"} alongside any global
	// series. Empty registers unlabeled (the single-lab CLI behavior).
	Tenant string
	// ObsGroup selects the introspection group (scrape registries,
	// health components, SLOs) the system registers with. Nil uses the
	// process-wide default group served by obs.Serve — the CLI
	// behavior. Services that pool several Systems in one process (the
	// gateway) pass their own group so tenants' telemetry and health
	// never collide with another service's.
	ObsGroup *obs.Group
	// Seed drives all stochastic fidelity noise (default 1).
	Seed int64
}

func (o *Options) fill() {
	if o.Stage == 0 {
		o.Stage = StageTestbed
	}
	if o.Generation == 0 {
		o.Generation = GenModified
	}
	if o.Multiplex == 0 {
		o.Multiplex = MultiplexTime
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// System is one fully wired lab: the environment, the engine, the
// interceptor, and the scripting session.
type System struct {
	Lab         *config.Lab
	Env         *env.Env
	Engine      *core.Engine // nil when Unprotected
	Simulator   *sim.Simulator
	Interceptor *trace.Interceptor
	Session     *Session
	// Recorder is the flight recorder (nil when Unprotected or
	// NoRecorder): the black-box ring the engine and interceptor feed,
	// and the incident-bundle writer behind IncidentDir.
	Recorder *recorder.Recorder
	// Obs is the system-wide telemetry registry, shared by the engine,
	// the interceptor, and the simulator, and registered with the
	// process-wide scrape group served by obs.Serve (-metrics).
	Obs *obs.Registry
	// Tracer is the causal tracer (nil when NoTracing): the interceptor
	// opens the run trace, the engine and simulator hang stage spans
	// beneath each command's root span, and tail sampling decides
	// retention at FinishTrace. Registered with the process-wide tracer
	// group served on /traces.
	Tracer *otrace.Tracer
	// SLOs are the safety objectives (nil when Unprotected): check
	// overhead and detection latency, exported as burn-rate series on
	// /metrics/prom.
	SLOs *obs.SafetySLOs

	// traceFile is the System-owned OTLP exporter behind TraceFile (nil
	// when traces export elsewhere or nowhere).
	traceFile *otrace.FileExporter
	// group is the introspection group every registration above lives
	// in (Options.ObsGroup, defaulting to obs.DefaultGroup).
	group *obs.Group
	// healthRegs are this system's /healthz–/readyz components.
	healthRegs []*obs.HealthReg
	// drainOnce makes Drain idempotent; drained flips only after the
	// engine's admission gate is closed, so a /readyz that reports
	// drained can never be followed by an admitted command.
	drainOnce sync.Once
	drained   atomic.Bool
}

// New builds a System from a parsed lab specification.
func New(spec *config.LabSpec, o Options) (*System, error) {
	o.fill()
	lab, err := config.Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("rabit: %w", err)
	}
	e, err := env.Build(lab, o.Stage, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("rabit: %w", err)
	}
	group := o.ObsGroup
	if group == nil {
		group = obs.DefaultGroup
	}
	reg := obs.NewRegistry("rabit/" + spec.Lab)
	group.Register(reg)
	sys := &System{Lab: lab, Env: e, Obs: reg, group: group}

	if !o.NoTracing {
		exporter := o.TraceExporter
		if o.TraceFile != "" {
			f, err := os.Create(o.TraceFile)
			if err != nil {
				group.Unregister(reg)
				return nil, fmt.Errorf("rabit: trace file: %w", err)
			}
			sys.traceFile = otrace.NewFileExporter(f)
			exporter = sys.traceFile
		}
		sys.Tracer = otrace.NewTracer(otrace.Options{
			SampleRate: o.TraceSampleRate,
			Exporter:   exporter,
			Seed:       o.Seed,
			Obs:        reg,
		})
		otrace.Register(sys.Tracer)
	}

	var checker trace.Checker
	if !o.Unprotected {
		custom, err := lab.CustomRules()
		if err != nil {
			return nil, fmt.Errorf("rabit: %w", err)
		}
		rb, err := rules.NewRulebase(lab, rules.Config{
			Generation: o.Generation,
			Multiplex:  o.Multiplex,
		}, custom...)
		if err != nil {
			return nil, fmt.Errorf("rabit: %w", err)
		}
		engOpts := []core.Option{
			core.WithInitialModel(lab.InitialModelState()),
			core.WithObserver(reg),
		}
		sys.SLOs = obs.NewSafetySLOs()
		if o.Tenant != "" {
			sys.SLOs.RegisterTenantIn(group, o.Tenant)
		} else {
			sys.SLOs.RegisterIn(group)
		}
		engOpts = append(engOpts, core.WithSLOs(sys.SLOs))
		if o.NoRuleMetrics {
			engOpts = append(engOpts, core.WithoutRuleMetrics())
		}
		if sys.Tracer != nil {
			engOpts = append(engOpts, core.WithTracer(sys.Tracer))
		}
		if !o.NoRecorder {
			sys.Recorder = recorder.New(recorder.Options{
				Dir: o.IncidentDir,
				Tag: o.IncidentTag,
				Obs: reg,
			})
			engOpts = append(engOpts, core.WithRecorder(sys.Recorder))
		}
		if o.SerialPipeline {
			engOpts = append(engOpts, core.WithSerialPipeline())
		}
		if o.FailSafe != nil {
			engOpts = append(engOpts, core.WithFailSafe(o.FailSafe))
		}
		if o.ExtendedSimulator {
			simOpts := []sim.Option{
				sim.WithHeldObjectAware(o.Generation >= GenModified),
				sim.WithObserver(reg),
			}
			if sys.Tracer != nil {
				simOpts = append(simOpts, sim.WithTracer(sys.Tracer))
			}
			if !o.NoMotionCache {
				// Sound here because the engine owns the model and bumps
				// the simulator's deck epoch on every deck-relevant commit.
				simOpts = append(simOpts, sim.WithMotionCache(true))
			}
			if o.SimulatorGUI {
				simOpts = append(simOpts, sim.WithGUI(640, 480))
			}
			if o.NoMotionCache || o.NoSpeculation {
				engOpts = append(engOpts, core.WithSpeculation(false))
			}
			sm, err := sim.New(lab, simOpts...)
			if err != nil {
				return nil, fmt.Errorf("rabit: %w", err)
			}
			sys.Simulator = sm
			engOpts = append(engOpts, core.WithSimulator(sm))
		}
		sys.Engine = core.New(rb, e, engOpts...)
		sys.Engine.Start()
		checker = sys.Engine
	}

	sys.Interceptor = trace.NewInterceptor(checker, e)
	sys.Interceptor.SetLog(new(trace.Log))
	sys.Interceptor.SetObserver(reg)
	sys.Interceptor.SetRecorder(sys.Recorder)
	sys.Interceptor.SetTracer(sys.Tracer)
	sys.Session = workflow.NewSession(sys.Interceptor, lab)
	sys.Session.Measure = e.MeasureSolubility
	sys.registerHealth()
	return sys, nil
}

// registerHealth publishes the system's components to its group's
// /healthz–/readyz set: the engine (alive always; ready until an
// alert stops the run or the system drains), the recorder (unhealthy
// once a bundle write has failed), and the trace exporter (unhealthy
// once an export has failed).
func (s *System) registerHealth() {
	if s.Engine != nil {
		s.healthRegs = append(s.healthRegs, s.group.RegisterHealth("engine", func() obs.Health {
			h := obs.Health{OK: true, Ready: true}
			if s.drained.Load() || s.Engine.Draining() {
				h.Ready = false
				h.Detail = "drained"
			}
			if al := s.Engine.Stopped(); al != nil {
				h.Ready = false
				h.Detail = "stopped: " + al.Kind.Slug()
			}
			return h
		}))
	}
	if s.Recorder != nil {
		s.healthRegs = append(s.healthRegs, s.group.RegisterHealth("recorder", func() obs.Health {
			if err := s.Recorder.Err(); err != nil {
				return obs.Health{Detail: err.Error()}
			}
			return obs.Health{OK: true, Ready: true}
		}))
	}
	if s.Tracer != nil {
		s.healthRegs = append(s.healthRegs, s.group.RegisterHealth("trace_exporter", func() obs.Health {
			if err := s.Tracer.ExportErr(); err != nil {
				return obs.Health{Detail: err.Error()}
			}
			return obs.Health{OK: true, Ready: true}
		}))
	}
}

// Drain quiesces the system for shutdown. It is a real gate, not
// advisory: the engine's admission gate closes first — commands
// submitted afterwards are rejected with ErrDraining — then in-flight
// checks and any speculative lookahead are waited out, the current run
// trace closes (making its tail-sampling decision), and the owned
// trace file flushes. The drained latch (what flips /readyz) is set
// only after the gate is closed, so a submit racing a drain can never
// be admitted after readiness reports drained. Idempotent.
func (s *System) Drain() {
	s.drainOnce.Do(func() {
		if s.Engine != nil {
			s.Engine.Drain()
			s.Engine.WaitSpeculation()
		}
		s.drained.Store(true)
		if s.Interceptor != nil {
			s.Interceptor.FinishTrace()
		}
		if s.traceFile != nil {
			s.traceFile.Flush()
		}
	})
}

// Close drains the system and releases every registration in its
// introspection group (scrape, tracer, SLO, health), then closes the
// owned trace file. Component errors are aggregated with errors.Join —
// a failed incident-bundle write, a failed trace export, and a failed
// trace-file close are each real flush losses a service replica must
// not swallow. Injected TraceExporters are the caller's to close.
func (s *System) Close() error {
	s.Drain()
	for _, hr := range s.healthRegs {
		hr.Unregister()
	}
	s.healthRegs = nil
	s.SLOs.Unregister()
	otrace.Unregister(s.Tracer)
	s.group.Unregister(s.Obs)
	var errs []error
	if s.Recorder != nil {
		if err := s.Recorder.Err(); err != nil {
			errs = append(errs, fmt.Errorf("rabit: recorder: %w", err))
		}
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("rabit: trace file: %w", err))
		}
	} else if s.Tracer != nil {
		// With an owned file the exporter error is the file's latched
		// state, already reported by Close above; report it separately
		// only for injected exporters.
		if err := s.Tracer.ExportErr(); err != nil {
			errs = append(errs, fmt.Errorf("rabit: trace exporter: %w", err))
		}
	}
	return errors.Join(errs...)
}

// NewFromFile builds a System from a lab JSON configuration file
// (Section II-C's configuration pathway).
func NewFromFile(path string, o Options) (*System, error) {
	lab, err := config.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return New(lab.Spec, o)
}

// NewTestbed builds the paper's low-fidelity testbed deck (Fig. 4).
func NewTestbed(o Options) (*System, error) { return New(labs.TestbedSpec(), o) }

// NewHeinProduction builds the Hein Lab production deck (Fig. 1a).
func NewHeinProduction(o Options) (*System, error) { return New(labs.HeinProductionSpec(), o) }

// NewBerlinguette builds the Berlinguette Lab deck (Section V-B).
func NewBerlinguette(o Options) (*System, error) { return New(labs.BerlinguetteSpec(), o) }

// Alerts returns the alerts raised so far (empty when unprotected).
func (s *System) Alerts() []Alert {
	if s.Engine == nil {
		return nil
	}
	return s.Engine.Alerts()
}

// Stopped returns the alert that halted the experiment, if any.
func (s *System) Stopped() *Alert {
	if s.Engine == nil {
		return nil
	}
	return s.Engine.Stopped()
}

// DamageCost returns the stage-scaled cost of all physical damage so far
// — ground truth the engine itself never sees.
func (s *System) DamageCost() float64 { return s.Env.DamageCost() }

// Trace returns the RATracer-style command trace so far.
func (s *System) Trace() []trace.Record { return s.Interceptor.Records() }

// ObsSnapshot captures the system's telemetry registry: stage latency
// histograms, outcome/alert/violation counters, gauges.
func (s *System) ObsSnapshot() obs.Snapshot { return s.Obs.Snapshot() }
