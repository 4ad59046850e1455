package core

import (
	"time"

	"repro/internal/action"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
)

// Causal-tracing and safety-SLO glue. The interceptor owns the run
// trace and binds each command's root span under (device, seq) in the
// tracer's binding registry; the engine's pipeline stages look the
// binding up and hang their stage spans beneath it — context threads
// through without changing the Checker interface. Span emission is
// retroactive wherever possible: the stages already read the clock for
// their latency histograms, and a finished span is just those two
// timestamps plus an ID, so tracing rides on clock reads the pipeline
// pays anyway. Everything is nil-safe: an engine without a tracer or
// SLO monitor pays one nil check per site.

// WithTracer attaches a causal tracer to the engine. The interceptor
// that drives the engine must share the same tracer — the engine only
// ever parents spans under bindings the interceptor published.
func WithTracer(t *otrace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// WithSLOs attaches the safety-SLO monitor: every Before/After feeds
// the check-overhead objective, every alert the detection-latency one.
func WithSLOs(s *obs.SafetySLOs) Option {
	return func(e *Engine) { e.slos = s }
}

// stageSpeculate names the speculative lookahead's span. It is timed
// like a pipeline stage but runs off the critical path, so it feeds the
// speculation record and the trace, never a stage histogram.
const stageSpeculate = "speculate"

// stageCtx is what one command's pipeline stages report into: its
// flight record (nil when recording is off), the root span context its
// stage spans parent under, and that trace's ID for histogram exemplars
// (zero and "" when the command is untraced).
type stageCtx struct {
	rec   *recorder.Active
	tctx  otrace.SpanContext
	trace string
}

// stage publishes one pipeline stage from a single pair of clock reads:
// the stage histogram (with the trace exemplar), the flight record's
// span field and the trace span all carry to−from. span is the stage's
// trace span when it had to be open before the stage ran (its context
// parents the simulator's child spans); otherwise the span is emitted
// retroactively. A non-nil alert marks the span — and thereby pins the
// whole trace for tail-sampling retention — as the alert's cause.
func (e *Engine) stage(sc stageCtx, name string, span *otrace.Span, from, to time.Time, al *Alert) {
	d := to.Sub(from)
	var discard recorder.Spans // stands in for the record when recording is off
	spans := &discard
	if sc.rec != nil {
		spans = &sc.rec.R.Spans
	}
	var h *obs.Histogram
	var ns *int64
	switch name {
	case obs.StageValidate:
		h, ns = e.hValidate, &spans.ValidateNS
	case obs.StageTrajectory:
		h, ns = e.hTrajectory, &spans.TrajectoryNS
	case obs.StageFetch:
		h, ns = e.hFetch, &spans.FetchNS
	case obs.StageCompare:
		h, ns = e.hCompare, &spans.CompareNS
	case stageSpeculate:
		ns = &spans.TrajectoryNS
	}
	h.ObserveExemplar(d, sc.trace)
	*ns = d.Nanoseconds()
	if span == nil {
		span = e.tracer.StartSpanAt(sc.tctx, name, from)
	}
	if al != nil && span != nil {
		span.MarkAlert(al.Kind.Slug(), al.Error())
	}
	span.EndAt(to)
}

// traceOf resolves the binding the interceptor published for a command,
// and stamps the trace ID into the command's flight record a, if any, so
// an incident bundle names the retained trace tree that explains it.
func (e *Engine) traceOf(cmd action.Command, a *recorder.Active) stageCtx {
	sc := stageCtx{rec: a}
	if e.tracer == nil {
		return sc
	}
	sc.tctx = e.tracer.Bound(cmd.Device, cmd.Seq)
	if sc.tctx.Valid() {
		sc.trace = sc.tctx.Trace.String()
		if a != nil {
			a.R.Trace = sc.trace
		}
	}
	return sc
}
