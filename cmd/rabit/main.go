// Command rabit runs an experiment workflow (or replays a recorded
// trace) on a chosen deck and stage under RABIT supervision, printing the
// command trace, any alert, and the ground-truth damage report.
//
// Usage:
//
//	rabit [flags]
//
//	-config path    lab JSON configuration (overrides -deck)
//	-deck name      bundled deck: testbed | hein | berlinguette (default testbed)
//	-stage name     simulator | testbed | production (default testbed)
//	-workflow name  fig5 | solubility | screening | spray (default fig5)
//	-replay path    replay a recorded JSONL trace instead of a workflow
//	-generation g   initial | modified (default modified)
//	-multiplex m    none | time | space (default time)
//	-sim            attach the Extended Simulator
//	-gui            render the simulator GUI on every check
//	-unprotected    run without RABIT (baseline)
//	-bug n          inject bug #n (1–16) into the fig5 workflow
//	-trace path     write the RATracer-style JSONL trace
//	-trace-otlp p   write retained causal traces as OTLP-JSON lines to p
//	                (render with rabiteval -trace p); alert traces are
//	                always retained, -trace-sample tunes the rest
//	-trace-sample r tail-sampling probability for non-alert traces
//	                (0 uses the built-in default; negative = alerts only)
//	-metrics addr   serve live telemetry on addr: /debug/vars (expvar),
//	                /metrics (text), /metrics/prom (Prometheus), /healthz,
//	                /readyz, /traces, /debug/pprof; off by default
//	-incident-dir d write a self-contained flight-recorder incident bundle
//	                (manifest.json + records.jsonl) under d for every alert;
//	                inspect with rabiteval -incidents d
//	-seed n         noise seed
//	-version        print build provenance and exit
package main

import (
	"flag"
	"fmt"
	"os"

	rabit "repro"
	"repro/internal/bugs"
	"repro/internal/config"
	"repro/internal/labs"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workflow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rabit:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configPath  = flag.String("config", "", "lab JSON configuration (overrides -deck)")
		deck        = flag.String("deck", "testbed", "bundled deck: testbed | hein | berlinguette")
		stageName   = flag.String("stage", "testbed", "simulator | testbed | production")
		wfName      = flag.String("workflow", "fig5", "fig5 | solubility | screening | spray")
		genName     = flag.String("generation", "modified", "initial | modified")
		muxName     = flag.String("multiplex", "time", "none | time | space")
		withSim     = flag.Bool("sim", false, "attach the Extended Simulator")
		withGUI     = flag.Bool("gui", false, "render the simulator GUI on every check")
		unprotected = flag.Bool("unprotected", false, "run without RABIT")
		bugID       = flag.Int("bug", 0, "inject bug #n (1-16) into the fig5 workflow")
		replayPath  = flag.String("replay", "", "replay a recorded JSONL trace instead of a workflow")
		tracePath   = flag.String("trace", "", "write the JSONL command trace here")
		traceOTLP   = flag.String("trace-otlp", "", "write retained causal traces (OTLP-JSON lines) here")
		traceSample = flag.Float64("trace-sample", 0, "tail-sampling probability for non-alert traces (negative = alerts only)")
		metricsAddr = flag.String("metrics", "", "serve /debug/vars, /metrics, and pprof on this address (e.g. localhost:6060)")
		incidentDir = flag.String("incident-dir", "", "write a flight-recorder incident bundle here for every alert")
		seed        = flag.Int64("seed", 1, "noise seed")
		version     = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("rabit", obs.ReadBuild())
		return nil
	}

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/metrics (also /debug/vars, /debug/pprof)\n", srv.Addr)
	}

	opt := rabit.Options{
		Unprotected:       *unprotected,
		ExtendedSimulator: *withSim || *withGUI,
		SimulatorGUI:      *withGUI,
		IncidentDir:       *incidentDir,
		TraceFile:         *traceOTLP,
		TraceSampleRate:   *traceSample,
		Seed:              *seed,
	}
	switch *stageName {
	case "simulator":
		opt.Stage = rabit.StageSimulator
	case "testbed":
		opt.Stage = rabit.StageTestbed
	case "production":
		opt.Stage = rabit.StageProduction
	default:
		return fmt.Errorf("unknown stage %q", *stageName)
	}
	switch *genName {
	case "initial":
		opt.Generation = rabit.GenInitial
	case "modified":
		opt.Generation = rabit.GenModified
	default:
		return fmt.Errorf("unknown generation %q", *genName)
	}
	switch *muxName {
	case "none":
		opt.Multiplex = rabit.MultiplexNone
	case "time":
		opt.Multiplex = rabit.MultiplexTime
	case "space":
		opt.Multiplex = rabit.MultiplexSpace
	default:
		return fmt.Errorf("unknown multiplex policy %q", *muxName)
	}

	var spec *config.LabSpec
	switch {
	case *configPath != "":
		lab, err := config.LoadFile(*configPath)
		if err != nil {
			return err
		}
		spec = lab.Spec
	case *deck == "testbed":
		spec = labs.TestbedSpec()
	case *deck == "hein":
		spec = labs.HeinProductionSpec()
	case *deck == "berlinguette":
		spec = labs.BerlinguetteSpec()
	default:
		return fmt.Errorf("unknown deck %q", *deck)
	}

	sys, err := rabit.New(spec, opt)
	if err != nil {
		return err
	}
	// Close drains the pipeline, makes the run trace's tail-sampling
	// decision, and flushes the OTLP file; the deferred call covers early
	// error returns (Close is idempotent).
	defer sys.Close()

	var wfErr error
	switch {
	case *replayPath != "":
		f, err := os.Open(*replayPath)
		if err != nil {
			return err
		}
		records, rerr := trace.ReadJSONL(f)
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
		if rerr != nil {
			return rerr
		}
		fmt.Printf("replaying %d recorded commands from %s\n", len(records), *replayPath)
		wfErr = trace.Replay(sys.Interceptor, records)
	default:
		wfErr = runWorkflow(sys, *wfName, *bugID)
	}

	fmt.Printf("\n=== command trace (%d commands) ===\n", len(sys.Trace()))
	for _, r := range sys.Trace() {
		line := fmt.Sprintf("%-50s %s", r.Cmd, r.Outcome)
		if r.Detail != "" {
			line += "  " + r.Detail
		}
		fmt.Println(line)
	}

	if wfErr != nil {
		fmt.Printf("\nworkflow stopped: %v\n", wfErr)
	} else {
		fmt.Println("\nworkflow completed")
	}
	if alerts := sys.Alerts(); len(alerts) > 0 {
		fmt.Println("\n=== RABIT alerts ===")
		for _, a := range alerts {
			fmt.Println(" ", a.Error())
		}
	}
	if evs := sys.Env.World().Events(); len(evs) > 0 {
		fmt.Println("\n=== ground-truth damage ===")
		for _, ev := range evs {
			fmt.Println(" ", ev)
		}
		fmt.Printf("stage-scaled damage cost: $%.2f\n", sys.DamageCost())
	} else {
		fmt.Println("\nno physical damage")
	}

	if *incidentDir != "" && sys.Recorder != nil {
		if err := sys.Recorder.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "rabit: incident bundle:", err)
		} else if len(sys.Alerts()) > 0 {
			fmt.Printf("incident bundles written to %s (inspect with rabiteval -incidents %s)\n",
				*incidentDir, *incidentDir)
		}
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteJSONL(f, sys.Trace()); err != nil {
			return err
		}
		fmt.Println("trace written to", *tracePath)
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("otlp trace: %w", err)
	}
	if *traceOTLP != "" {
		fmt.Printf("OTLP traces written to %s (render with rabiteval -trace %s)\n",
			*traceOTLP, *traceOTLP)
	}
	return nil
}

// runWorkflow executes the named workflow, optionally with an injected
// bug.
func runWorkflow(sys *rabit.System, wfName string, bugID int) error {
	switch wfName {
	case "fig5":
		steps := rabit.Fig5Workflow()
		if bugID != 0 {
			b, ok := bugs.ByID(bugID)
			if !ok {
				return fmt.Errorf("no bug #%d", bugID)
			}
			fmt.Printf("injecting bug %d (%s): %s\n", b.ID, b.Slug, b.Description)
			steps = b.Mutate(sys.Session)
		}
		return rabit.RunSteps(sys.Session, steps)
	case "solubility":
		res, err := workflow.RunSolubility(sys.Session, workflow.DefaultSolubilityParams())
		if res != nil {
			fmt.Printf("solubility: dissolved=%v solvent=%.1f mL iterations=%d\n",
				res.Dissolved, res.SolventML, res.Iterations)
		}
		return err
	case "screening":
		return rabit.RunSteps(sys.Session, workflow.ScreeningSteps())
	case "spray":
		return rabit.RunSteps(sys.Session, workflow.SpraySteps())
	default:
		return fmt.Errorf("unknown workflow %q", wfName)
	}
}
