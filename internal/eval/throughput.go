package eval

import (
	"fmt"
	"sync"
	"time"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ThroughputOptions configures a replay-throughput run: G concurrent
// experiment scripts, each owning one action device, replaying a fixed
// command cycle under real-time pacing.
type ThroughputOptions struct {
	// Scripts is the number of concurrent experiment scripts (each gets
	// its own device, so it is also the fleet size).
	Scripts int
	// CommandsPerScript is how many commands each script issues (rounded
	// up to whole set/start/read/stop cycles).
	CommandsPerScript int
	// Speedup paces execution: each command consumes its simulated device
	// time divided by this factor of real wall-clock time. Zero disables
	// pacing (pure checking throughput).
	Speedup float64
	// System configures the engine stack every script shares. Its
	// SerialPipeline selects the baseline deployment: the engine's global
	// single-lock pipeline behind ONE shared interceptor. That pairing is
	// not arbitrary — the seed engine chains every Before onto a single
	// pending expectation that the next After settles, so interleaved
	// Before/After from independent interceptors corrupts it; its only
	// safe concurrent deployment serializes whole command cycles. The
	// sharded engine lifts exactly that restriction, which is what this
	// harness measures. The overhead benchmarks flip NoRecorder,
	// NoTracing and NoRuleMetrics as their before/after switches.
	System rabit.Options
}

// ThroughputResult is one measured configuration.
type ThroughputResult struct {
	Mode string
	// Labs is the gateway deployment's tenant count (0 for the
	// in-process serial and sharded modes).
	Labs     int
	Scripts  int
	Commands int
	Wall     time.Duration
	// CommandsPerSec is the headline number: commands fully processed
	// (checked, executed, post-checked) per second of wall clock.
	CommandsPerSec float64
	// CheckPerCommand is RABIT's mean checking time per command.
	CheckPerCommand time.Duration
	// Validate, Fetch, and Compare are the engine's per-stage latency
	// histograms over the run.
	Validate StageLatency
	Fetch    StageLatency
	Compare  StageLatency
}

// throughputSpec builds a synthetic deck of n independent hotplates — no
// arms, no shared doors — so every command's rule bucket reads only its
// own device and the sharded pipeline can run all n scripts concurrently.
func throughputSpec(n int) *config.LabSpec {
	spec := &config.LabSpec{Lab: "throughput-fleet", FloorZ: 0}
	for i := 0; i < n; i++ {
		x := float64(i) * 0.3
		spec.Devices = append(spec.Devices, config.DeviceSpec{
			ID:   fmt.Sprintf("hp%02d", i),
			Type: "action_device", Kind: "hotplate", ClassName: "IKAHotplate",
			Cuboid: config.BoxSpec{
				Min: config.Vec{X: x, Y: 0, Z: 0},
				Max: config.Vec{X: x + 0.2, Y: 0.2, Z: 0.15},
			},
			ActionThreshold: 150,
			MaxSafeValue:    340,
		})
	}
	return spec
}

// throughputScript is one script's command stream: set a safe setpoint,
// run a timed action, poll, stop — the cadence of a solubility screen's
// per-sample loop.
func throughputScript(device string, commands int) []action.Command {
	cycles := (commands + 3) / 4
	out := make([]action.Command, 0, cycles*4)
	for c := 0; c < cycles; c++ {
		out = append(out,
			action.Command{Device: device, Action: action.SetActionValue, Value: 40 + float64(c%10)*10},
			action.Command{Device: device, Action: action.StartAction, Duration: time.Second},
			action.Command{Device: device, Action: action.ReadStatus},
			action.Command{Device: device, Action: action.StopAction},
		)
	}
	return out
}

// Throughput replays Scripts concurrent command streams and measures
// commands/sec. In serial mode all scripts funnel through one shared
// interceptor (the seed architecture's only safe concurrent deployment;
// see ThroughputOptions.System); in sharded mode each script gets its
// own interceptor and the engine's per-device shards let disjoint
// command cycles — paced execution included — overlap.
func Throughput(o ThroughputOptions) (*ThroughputResult, error) {
	if o.Scripts <= 0 {
		o.Scripts = 1
	}
	if o.CommandsPerScript <= 0 {
		o.CommandsPerScript = 40
	}
	serial := o.System.SerialPipeline
	s, err := rabit.New(throughputSpec(o.Scripts), o.System)
	if err != nil {
		return nil, fmt.Errorf("eval: throughput: %w", err)
	}
	defer s.Close()
	if o.Speedup > 0 {
		s.Env.SetPacing(o.Speedup)
	}

	scripts := make([][]action.Command, o.Scripts)
	interceptors := make([]*trace.Interceptor, o.Scripts)
	for g := 0; g < o.Scripts; g++ {
		scripts[g] = throughputScript(fmt.Sprintf("hp%02d", g), o.CommandsPerScript)
		if serial {
			interceptors[g] = s.Interceptor
		} else {
			interceptors[g] = trace.NewInterceptor(s.Engine, s.Env)
			interceptors[g].SetRecorder(s.Recorder)
			interceptors[g].SetTracer(s.Tracer)
		}
	}

	errs := make([]error, o.Scripts)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < o.Scripts; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, cmd := range scripts[g] {
				if err := interceptors[g].Do(cmd); err != nil {
					errs[g] = fmt.Errorf("script %d: %s: %w", g, cmd, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	// Each script's interceptor opened its own run trace; settle their
	// tail-sampling decisions before the setup drains.
	if !serial {
		for _, ic := range interceptors {
			ic.FinishTrace()
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("eval: throughput: %w", err)
		}
	}
	if a := s.Engine.Stopped(); a != nil {
		return nil, fmt.Errorf("eval: throughput: unexpected alert: %s", a.Error())
	}

	check, commands := s.Engine.CheckOverhead()
	mode := "sharded"
	if serial {
		mode = "serial"
	}
	res := &ThroughputResult{
		Mode:     mode,
		Scripts:  o.Scripts,
		Commands: commands,
		Wall:     wall,
		Validate: stageLatency(s.Obs, obs.StageValidate),
		Fetch:    stageLatency(s.Obs, obs.StageFetch),
		Compare:  stageLatency(s.Obs, obs.StageCompare),
	}
	if wall > 0 {
		res.CommandsPerSec = float64(commands) / wall.Seconds()
	}
	if commands > 0 {
		res.CheckPerCommand = check / time.Duration(commands)
	}
	return res, nil
}

// RenderThroughput prints throughput rows with the per-stage latency
// columns.
func RenderThroughput(rows []ThroughputResult) string {
	out := fmt.Sprintf("%-10s %8s %10s %12s %12s %12s %14s %14s %14s\n",
		"Pipeline", "scripts", "commands", "wall", "cmds/sec", "check/cmd",
		"validate p50", "fetch p50", "compare p50")
	stage := func(sl StageLatency) string {
		if sl.Count == 0 {
			return "—"
		}
		return sl.P50.String()
	}
	for _, r := range rows {
		mode := r.Mode
		if r.Labs > 0 {
			mode = fmt.Sprintf("%s/%d", r.Mode, r.Labs)
		}
		out += fmt.Sprintf("%-10s %8d %10d %12s %12.0f %12s %14s %14s %14s\n",
			mode, r.Scripts, r.Commands, r.Wall.Round(time.Millisecond),
			r.CommandsPerSec, r.CheckPerCommand,
			stage(r.Validate), stage(r.Fetch), stage(r.Compare))
	}
	return out
}
