package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the end-to-end set, measured with tracing off. Every
// workload reports every one of them; README.md gives each workload's
// reading of "operation". Each run also prints latency_us.p99 with its
// sample count, outside the result line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_us.p50", "us"},
	{"throughput_per_s", "1/s"},
	{"live_heap_mb", "MB"},
}

// perLayer is the per-layer set of the traced run. Every traced run
// prints all of them; a layer a workload never reaches reads 0 and is
// marked n/a in the human-readable report. latency_us.p99 leads it: the
// end-to-end tail, from the run's untraced half, kept here because on
// the reference machine it does not repeat within the end-to-end bound
// on every workload.
var perLayer = []metricDef{
	{"latency_us.p99", "us"},
	{"trace.do_us.p50", "us"},
	{"trace.self_us.p50", "us"},
	{"core.before_us.p50", "us"},
	{"core.before_us.p99", "us"},
	{"core.after_us.p50", "us"},
	{"core.after_us.p99", "us"},
	{"core.self_us.p50", "us"},
	{"core.speculations", "count"},
	{"core.speculation_hits", "count"},
	{"core.speculations_dropped", "count"},
	{"core.restarts", "count"},
	{"core.overhead_gap", "ratio"},
	{"block_us.p50", "us"},
	{"rules.validate_us.p50", "us"},
	{"rules.evals_per_cmd", "count"},
	{"state.compare_us.p50", "us"},
	{"env.execute_us.p50", "us"},
	{"env.execute_us.p99", "us"},
	{"env.fetch_us.p50", "us"},
	{"sim.validate_us.p50", "us"},
	{"sim.validate_us.p99", "us"},
	{"sim.verdict_hit_ratio", "ratio"},
	{"sim.collision_checks", "count"},
	{"sim.epoch_bumps", "count"},
	{"kin.plan_hit_ratio", "ratio"},
	{"kin.plan_misses", "count"},
	{"kin.warm_starts", "count"},
	{"geom.prune_ratio", "ratio"},
	{"geom.candidates_per_check", "count"},
	{"obs.recorder_records", "count"},
	{"obs.traces_retained", "count"},
	{"obs.spans_dropped", "count"},
	{"gateway.handler_us.p50", "us"},
	{"gateway.handler_us.p99", "us"},
	{"gateway.first_verdict_us.p50", "us"},
	{"gateway.rejects", "count"},
	{"loadgen.late_us.p99", "us"},
	{"loadgen.backlog_max", "count"},
	{"campaign.generate_s", "s"},
	{"campaign.detected", "count"},
	{"campaign.missed", "count"},
	{"campaign.false_alarms", "count"},
	{"campaign.oracle_errors", "count"},
	{"campaign.run_errors", "count"},
	{"process.allocs_per_op", "count"},
	{"process.alloc_bytes_per_op", "B"},
	{"process.gc_pause_ms", "ms"},
	{"unattributed_share", "ratio"},
	{"tracing_overhead", "ratio"},
}

// metric is one measured value. n is the sample count behind a
// statistic (0 for counts and derived ratios); note marks values the
// program measured itself rather than the benchmark at a public
// boundary.
type metric struct {
	value float64
	unit  string
	n     int
	note  string
}

// programMeasured marks a value read from the program's own counters or
// stage histograms (layers reachable only through a concrete type).
const programMeasured = "program-measured"

// report collects one run's outcome.
type report struct {
	attempted int64
	failed    int64
	problems  []string // correctness checks that did not hold
	metrics   map[string]metric
	info      []string // extra human-readable lines
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64, n int, note string) {
	r.metrics[name] = metric{value: v, unit: unit, n: n, note: note}
}

// count records one attempted operation and whether it failed.
func (r *report) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// problem records a failed correctness check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the result line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result builds the JSON result line over the named metric set. A
// metric the run did not measure reads 0; with requireAll (the
// end-to-end set, which every workload measures in full) that makes the
// run incorrect.
func (r *report) result(names []metricDef, requireAll bool) jsonResult {
	out := jsonResult{
		Correct:   len(r.problems) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range names {
		m, ok := r.metrics[d.name]
		if !ok && requireAll {
			out.Correct = false
		}
		out.Metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
	}
	return out
}

// render prints the human-readable report: every metric of the set with
// unit, sample count and provenance, then every other measured value
// (the workload's own named metrics), then checks.
func (r *report) render(w io.Writer, names []metricDef) {
	listed := map[string]bool{}
	for _, d := range names {
		listed[d.name] = true
		m, ok := r.metrics[d.name]
		note := m.note
		if !ok {
			note = "n/a on this workload"
		}
		fmt.Fprintf(w, "%-30s %14.4f %-6s %s\n", d.name, m.value, d.unit, sampleNote(m.n, note))
	}
	var extra []string
	for name := range r.metrics {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		fmt.Fprintln(w, "# also measured:")
	}
	for _, name := range extra {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-30s %14.4f %-6s %s\n", name, m.value, m.unit, sampleNote(m.n, m.note))
	}
	for _, line := range r.info {
		fmt.Fprintln(w, "# "+line)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d failed_share=%.6f\n", r.attempted, r.failed, share)
	for _, p := range r.problems {
		fmt.Fprintln(w, "# CHECK FAILED: "+p)
	}
}

func sampleNote(n int, note string) string {
	var parts []string
	if n > 0 {
		parts = append(parts, fmt.Sprintf("n=%d", n))
	}
	if note != "" {
		parts = append(parts, note)
	}
	return strings.Join(parts, " ")
}
