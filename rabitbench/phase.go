package main

import (
	"bytes"
	"fmt"
)

// endToEnd records an in-process phase's end-to-end metrics. The
// operation is one command; its latency is RABIT's added time, Before +
// After at the trace.Checker boundary, excluding Execute.
func (ph *phase) endToEnd(rep *report) {
	rep.set("setup_s", "s", medianDuration(ph.setup).Seconds(), len(ph.setup), "median of builds")
	rep.setLatency("latency_us", "us", ph.latency(), 1e3, "check: Before+After")
	n := ph.measured()
	rep.set("throughput_per_s", "1/s", float64(n)/ph.wall.Seconds(), int(n), "commands, closed loop")
	rep.set("live_heap_mb", "MB", ph.heapMB, 0, "")
	rep.infof("issue names: check_us.* = latency_us.*, cmds_per_s = throughput_per_s")
	ph.blockLatency(rep)
	ph.count(rep)
}

// blockLatency records block_us.p50 when the phase had must-block
// commands.
func (ph *phase) blockLatency(rep *report) {
	var block samples
	for _, s := range ph.scripts {
		block = append(block, s.block...)
	}
	if len(block) > 0 {
		rep.set("block_us.p50", "us", us(block.quantile(0.5)), len(block), "check of must-block commands")
	}
}

// count adds the phase's attempted and failed commands to the report.
func (ph *phase) count(rep *report) {
	for i, s := range ph.scripts {
		rep.count(s.ops, s.failed)
		if s.firstBad != "" {
			rep.problem("script %d: %d commands differ from their labels; first: %s", i, s.failed, s.firstBad)
		}
	}
}

// perLayer records the per-layer metrics of a traced phase, with plain —
// the untraced phase over the same generated inputs — for tracing
// overhead, the traced-equals-untraced verdict check, and the
// program-measured layers.
func (ph *phase) perLayer(rep *report, plain *phase, cfg runConfig) error {
	plain.count(rep)
	ph.count(rep)
	for i, s := range ph.scripts {
		u := plain.scripts[i].verdicts
		n := min(len(u), len(s.verdicts))
		if !bytes.Equal(u[:n], s.verdicts[:n]) {
			rep.problem("script %d: traced verdicts differ from untraced within the first %d commands", i, n)
		}
	}
	var agg layerAgg
	var dump []span
	for _, s := range ph.scripts {
		agg.merge(&s.p.agg)
		dump = append(dump, s.p.dump...)
	}
	agg.report(rep)

	plain.blockLatency(rep)
	rep.set("core.restarts", "count", float64(plain.restarts), 0, "")
	var sum, n int64
	for _, s := range plain.scripts {
		sum += s.checkSum
		n += s.checkN
	}
	rep.programStages(plain.obs, plain.totals)
	if ph.checker != nil && ph.checker.st != nil {
		ph.checker.st.report(rep)
	}
	rep.overheadGap(plain.totals, sum, n)
	rep.setProcess(plain.proc[0], plain.proc[1], plain.measured())

	rep.setTail("latency_us", plain.latency(), "check: Before+After, untraced half")
	base, with := plain.latency().quantile(0.5), ph.latency().quantile(0.5)
	rep.set("tracing_overhead", "ratio", ratio(float64(with), float64(base))-1, 0, "latency_us.p50 traced / untraced - 1")
	return rep.writeSpans(cfg, dump)
}

// writeSpans writes the traced run's retained spans and names the file.
func (rep *report) writeSpans(cfg runConfig, dump []span) error {
	path, err := writeSpans(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed), dump)
	if err != nil {
		return err
	}
	rep.infof("spans: %d written to %s", len(dump), path)
	return nil
}
