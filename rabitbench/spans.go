package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// layer is a span's boundary. Spans are recorded from the benchmark's
// own decorators around calls into each layer's public functions; the
// op root is the benchmark's unit of work and belongs to no layer.
type layer uint8

const (
	layerOp      layer = iota // benchmark operation: command, batch or scenario
	layerDo                   // trace.Interceptor.Do / DoLookahead
	layerWait                 // load generator: batch due → request sent
	layerClient               // HTTP client: request sent → last verdict line read
	layerBefore               // trace.Checker.Before (core.Engine)
	layerAfter                // trace.Checker.After (core.Engine)
	layerExecute              // trace.Executor.Execute (env)
	layerHandler              // gateway http.Handler
	layerFetch                // engine environment fetch (core.ScopedEnvironment)
	layerSim                  // trajectory validation, from the simulator's stage histogram
	numLayers
)

var layerNames = [numLayers]string{
	"op", "trace.do", "loadgen.wait", "http.client", "core.before", "core.after",
	"env.execute", "gateway.handler", "env.fetch", "sim.validate",
}

// layerDepth is each layer's nesting level: a span's parent is the
// innermost span one level up whose interval contains its start.
var layerDepth = [numLayers]int{0, 1, 1, 1, 2, 2, 2, 2, 3, 3}

// span is one recorded interval, in nanoseconds since the run's epoch.
type span struct {
	op         int64
	layer      layer
	start, end int64
}

// parents returns each span's parent index (-1 for a root) within one
// operation's spans.
func parents(spans []span) []int {
	out := make([]int, len(spans))
	for i, s := range spans {
		out[i] = -1
		want := layerDepth[s.layer] - 1
		for j, p := range spans {
			if j == i || layerDepth[p.layer] != want || s.start < p.start || s.start > p.end {
				continue
			}
			if out[i] < 0 || p.start > spans[out[i]].start {
				out[i] = j
			}
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) []int64 {
	par := parents(spans)
	self := make([]int64, len(spans))
	for i, s := range spans {
		var kids [][2]int64
		for j, c := range spans {
			if par[j] != i {
				continue
			}
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		self[i] = s.end - s.start - covered(kids)
	}
	return self
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, hi int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] >= hi:
			total += x[1] - x[0]
			hi = x[1]
			first = false
		case x[1] > hi:
			total += x[1] - hi
			hi = x[1]
		}
	}
	return total
}

// layerAgg folds operations' span trees into per-layer samples.
type layerAgg struct {
	ops int
	// dur and self hold, per operation in which the layer appears, the
	// summed duration and self time of its spans.
	dur, self [numLayers]samples
	// coreSelf is the checker's self time per command: Before + After
	// minus environment fetch and simulator validation.
	coreSelf samples
	// rootDur and rootSelf sum the op roots' durations and the part of
	// them no layer span covers.
	rootDur, rootSelf int64
}

// addOp folds one operation's spans; spans[0..] may be in any order but
// must contain exactly one op root.
func (a *layerAgg) addOp(spans []span) {
	self := selfTimes(spans)
	var dur, slf [numLayers]int64
	var seen [numLayers]bool
	for i, s := range spans {
		dur[s.layer] += s.end - s.start
		slf[s.layer] += self[i]
		seen[s.layer] = true
	}
	a.ops++
	for l := range numLayers {
		if seen[l] {
			a.dur[l] = append(a.dur[l], dur[l])
			a.self[l] = append(a.self[l], slf[l])
		}
	}
	if seen[layerBefore] || seen[layerAfter] {
		a.coreSelf = append(a.coreSelf, slf[layerBefore]+slf[layerAfter])
	}
	a.rootDur += dur[layerOp]
	a.rootSelf += slf[layerOp]
}

// addAll folds a log holding many operations' spans.
func (a *layerAgg) addAll(spans []span) {
	slices.SortStableFunc(spans, func(x, y span) int {
		if x.op != y.op {
			return int(x.op - y.op)
		}
		return int(x.start - y.start)
	})
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].op == spans[lo].op {
			hi++
		}
		a.addOp(spans[lo:hi])
		lo = hi
	}
}

// unattributed is the share of operation time no layer span covers.
func (a *layerAgg) unattributed() float64 {
	return ratio(float64(a.rootSelf), float64(a.rootDur))
}

// heapBytes is the memory the aggregate's sample buffers hold.
func (a *layerAgg) heapBytes() int64 {
	n := cap(a.coreSelf)
	for l := range numLayers {
		n += cap(a.dur[l]) + cap(a.self[l])
	}
	return int64(n) * 8
}

// maxDumpSpans bounds how many spans one run writes out: enough to read
// whole operations, not a full copy of a multi-million-span run.
const maxDumpSpans = 50000

// probe records one script's operations. It is used from one goroutine
// only; in traced mode each finished operation is folded into agg at
// once, so memory stays bounded by the samples, not the spans.
type probe struct {
	epoch  time.Time
	traced bool
	op     int64
	open   bool
	spans  []span
	agg    layerAgg
	dump   []span
	// checkNS accumulates the current operation's Before + After time,
	// measured in both modes at the trace.Checker boundary.
	checkNS int64
}

func newProbe(epoch time.Time, traced bool) *probe {
	return &probe{epoch: epoch, traced: traced}
}

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// mark is an open span.
type mark struct {
	start int64
	layer layer
}

func (p *probe) begin(l layer) mark { return mark{start: p.now(), layer: l} }

// end closes m, recording it when tracing an open operation, and
// returns its duration.
func (p *probe) end(m mark) int64 {
	e := p.now()
	if p.traced && p.open {
		p.spans = append(p.spans, span{op: p.op, layer: m.layer, start: m.start, end: e})
	}
	return e - m.start
}

// add records an already measured span of the current operation.
func (p *probe) add(l layer, start, end int64) {
	if p.traced && p.open {
		p.spans = append(p.spans, span{op: p.op, layer: l, start: start, end: end})
	}
}

// beginOp opens operation id.
func (p *probe) beginOp(id int64) mark {
	p.op, p.open, p.checkNS = id, true, 0
	p.spans = p.spans[:0]
	return p.begin(layerOp)
}

// endOp closes the operation and folds its spans; it returns the op's
// duration.
func (p *probe) endOp(m mark) int64 {
	d := p.end(m)
	p.open = false
	if p.traced {
		if room := maxDumpSpans - len(p.dump); room > 0 {
			p.dump = append(p.dump, p.spans[:min(room, len(p.spans))]...)
		}
		p.agg.addOp(p.spans)
	}
	return d
}

// spanRecord is one line of a written span file.
type spanRecord struct {
	Op      int64  `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeSpans writes spans as JSON lines to dir/name, one per span, with
// ids and parents numbered within each operation.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].op == spans[lo].op {
			hi++
		}
		op := spans[lo:hi]
		par := parents(op)
		for i, s := range op {
			rec := spanRecord{Op: s.op, ID: i, Parent: par[i], Name: layerNames[s.layer], StartNS: s.start, EndNS: s.end}
			if err := enc.Encode(rec); err != nil {
				return "", fmt.Errorf("spans: %w", err)
			}
		}
		lo = hi
	}
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, f.Close()
}

// merge folds another aggregate's samples into a.
func (a *layerAgg) merge(b *layerAgg) {
	a.ops += b.ops
	for l := range numLayers {
		a.dur[l] = append(a.dur[l], b.dur[l]...)
		a.self[l] = append(a.self[l], b.self[l]...)
	}
	a.coreSelf = append(a.coreSelf, b.coreSelf...)
	a.rootDur += b.rootDur
	a.rootSelf += b.rootSelf
}

// report records the span-derived per-layer metrics.
func (a *layerAgg) report(rep *report) {
	q := func(name string, s samples, p99 bool) {
		if len(s) == 0 {
			return
		}
		rep.set(name+".p50", "us", us(s.quantile(0.5)), len(s), "")
		if p99 && highestTail(len(s)) >= 0.99 {
			rep.set(name+".p99", "us", us(s.quantile(0.99)), len(s), "")
		}
	}
	q("trace.do_us", a.dur[layerDo], false)
	q("trace.self_us", a.self[layerDo], false)
	q("core.before_us", a.dur[layerBefore], true)
	q("core.after_us", a.dur[layerAfter], true)
	q("core.self_us", a.coreSelf, false)
	q("env.execute_us", a.dur[layerExecute], true)
	q("env.fetch_us", a.dur[layerFetch], false)
	q("gateway.handler_us", a.dur[layerHandler], true)
	q("http.client_self_us", a.self[layerClient], false)
	q("gateway.handler_self_us", a.self[layerHandler], false)
	if a.rootDur > 0 {
		rep.set("unattributed_share", "ratio", a.unattributed(), a.ops, "op time outside every layer span")
	}
}
