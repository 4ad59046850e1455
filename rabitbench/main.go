// Command rabitbench is the repository benchmark. One invocation runs one
// workload for a fixed number of seconds against the public surfaces
// (rabit.New, trace.Interceptor, core.Engine, gateway.Handler over
// loopback HTTP, campaign.Run), checks every verdict against the label
// its generator attached, and prints a human-readable report followed,
// on the last line of standard output, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured untraced.
// With -trace 1 they are the per-layer set: the run is split into an
// untraced phase and a traced phase of equal length over the same
// generated inputs, so tracing overhead and traced-equals-untraced
// verdicts come from one process. README.md lists every metric.
//
// Usage (from the repository root):
//
//	bash rabitbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	spansDir string
}

// workloads maps each workload name to its runner. A runner returns a
// report holding every metric it measured; main picks the end-to-end or
// per-layer set for output.
var workloads = map[string]func(runConfig) (*report, error){
	"fleet":    runFleet,
	"motion":   runMotion,
	"gateway":  runGateway,
	"campaign": runCampaign,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rabitbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: fleet, motion, gateway or campaign")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "rabitbench: unknown workload %q (fleet, motion, gateway, campaign)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "rabitbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		spansDir: *spansDir,
	}
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "rabitbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	fmt.Fprintf(stdout, "# rabitbench workload=%s seed=%d seconds=%s trace=%v go=%s cpus=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.NumCPU())
	rep.render(stdout, names)
	line, err := json.Marshal(rep.result(names, !cfg.trace))
	if err != nil {
		fmt.Fprintf(stderr, "rabitbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
