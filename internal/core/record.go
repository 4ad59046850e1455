package core

import (
	"time"

	"repro/internal/action"
	"repro/internal/obs/recorder"
)

// Flight-recorder glue. The engine is where every forensic fact is in
// scope at once — the rules evaluated, the model view they read, the
// verdict's provenance, the pipeline path, the commit epoch — so the
// capture lives here, next to the sections that already hold the right
// locks. Everything is nil-safe: an engine without a recorder pays one
// nil check per capture point.

// WithRecorder attaches a flight recorder to the engine.
func WithRecorder(r *recorder.Recorder) Option {
	return func(e *Engine) { e.rec = r }
}

// beginRecord opens a command record: correlation ID, rendered command,
// the rule IDs validation is about to evaluate, and the lab clock.
func (e *Engine) beginRecord(cmd action.Command, path string) *recorder.Active {
	if e.rec == nil {
		return nil
	}
	a := e.rec.Begin(cmd, path)
	a.R.TNS = e.env.Now().Nanoseconds()
	a.R.Rules = e.rb.AppliedRuleIDs(cmd)
	return a
}

// recordScope lists the IDs whose state a command's record should
// capture: the IDs the command names plus extras the caller resolved
// (e.g. the container currently inside the device).
func recordScope(cmd action.Command, extra ...string) []string {
	ids := make([]string, 0, 6+len(extra))
	ids = append(ids, cmd.Device, cmd.InsideDevice, cmd.Object, cmd.FromContainer, cmd.ToContainer)
	return append(ids, extra...)
}

// recordAlert stamps an alert into its record and freezes the window
// into an incident bundle, feeding the detection-latency SLO from the
// same lab-clock pair forensics aggregates (alert time − issue time).
// Nil-safe on the record.
func (e *Engine) recordAlert(a *recorder.Active, al *Alert) {
	if a == nil {
		return
	}
	a.R.AlertKind = al.Kind.Slug()
	a.R.Alert = al.Error()
	a.R.AlertTNS = al.Time.Nanoseconds()
	if d := al.Time - time.Duration(a.R.TNS); d >= 0 {
		e.slos.ObserveDetection(d)
	}
	for _, v := range al.Violations {
		a.R.Violations = append(a.R.Violations, v.Rule.ID)
	}
	for _, m := range al.Mismatches {
		a.R.Mismatches = append(a.R.Mismatches, string(m.Key))
	}
	a.CommitIncident()
}

// settleBatch commits the records of global-batch mates that were
// settled by another command's After (concurrent global Befores share
// one cumulative expectation and one post-state check).
func (e *Engine) settleBatch(recs []*recorder.Active, settled *recorder.Active, by string) {
	for _, a := range recs {
		if a == nil || a == settled {
			continue
		}
		a.R.SettledBy = by
		a.Commit()
	}
}

// corrOf resolves the correlation ID of an in-flight command, for
// linking a speculation to the command whose execution it overlaps. The
// global pipeline's batch list is probed with TryLock — Hint must never
// block on a busy engine, and an unresolved parent only costs the link.
func (e *Engine) corrOf(cmd action.Command) string {
	if e.rec == nil {
		return ""
	}
	if t := e.lookupTicket(cmd.Device); t != nil && t.rec != nil && t.rec.R.Seq == cmd.Seq {
		return t.rec.R.Corr
	}
	if e.mu.TryLock() {
		defer e.mu.Unlock()
		for _, a := range e.pendingRecs {
			if a != nil && a.R.Seq == cmd.Seq && a.R.Device == cmd.Device {
				return a.R.Corr
			}
		}
	}
	return ""
}
