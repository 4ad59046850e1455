package core

import (
	"time"

	"repro/internal/action"
	"repro/internal/obs/recorder"
	"repro/internal/state"
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

// beginRecord opens a command record: correlation ID, raw command, the
// rule IDs validation is about to evaluate, and the lab clock. The
// record's handle is pooled; the pipeline releases it once nothing can
// reach it (after releaseTicket on the sharded path, once the batch has
// settled on the global path).
func (e *Engine) beginRecord(cmd action.Command, path string) *recorder.Active {
	if e.rec == nil {
		return nil
	}
	a := e.rec.Begin(cmd, path)
	a.R.TNS = e.env.Now().Nanoseconds()
	a.R.Rules = e.rb.AppendAppliedRuleIDs(a.R.Rules[:0], cmd)
	return a
}

// indexViews builds the index of the model's key set that records
// capture their views through. The caller holds stateMu for writing.
func (e *Engine) indexViews() {
	e.views = nil
	if e.rec != nil {
		e.views = recorder.NewViewIndex(e.model)
	}
}

// syncViews brings the view index in line with a commit that may have
// changed the model's key set. Only the commit's own keys can have
// entered or left the model: the expectation's edits and the observed
// snapshot's keys. The caller holds stateMu for writing.
func (e *Engine) syncViews(pending *state.Overlay, observed state.Snapshot) {
	if pending != nil {
		pending.RangeEdits(func(k state.Key, _ state.Value, _ bool) bool {
			if _, ok := e.model[k]; ok {
				e.views.Add(k)
			} else {
				e.views.Remove(k)
			}
			return true
		})
	}
	for k := range observed {
		e.views.Add(k)
	}
}

// recordScope lists the IDs whose state a command's record should
// capture: the IDs the command names plus the container currently inside
// the device. An array, so the global path's capture allocates nothing.
func recordScope(cmd action.Command, inside string) [6]string {
	return [6]string{cmd.Device, cmd.InsideDevice, cmd.Object, cmd.FromContainer, cmd.ToContainer, inside}
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
// one cumulative expectation and one post-state check), then releases
// every handle of the batch, settled included: the batch has left
// pendingRecs, so nothing can reach them any more. The caller holds mu.
func (e *Engine) settleBatch(recs []*recorder.Active, settled *recorder.Active) {
	by := ""
	for _, a := range recs {
		if a == nil || a == settled {
			continue
		}
		if by == "" {
			by = settled.Corr().String()
		}
		a.R.SettledBy = by
		a.Commit()
	}
	for i, a := range recs {
		a.Release()
		recs[i] = nil
	}
}

// corrOf resolves the correlation ID of an in-flight command, for
// linking a speculation to the command whose execution it overlaps. A
// sharded command's ID is read from the copy its ticket carries — its
// record handle may already have been recycled. The global pipeline's
// batch list is probed with TryLock — Hint must never block on a busy
// engine, and an unresolved parent only costs the link.
func (e *Engine) corrOf(cmd action.Command) string {
	if e.rec == nil {
		return ""
	}
	if t := e.lookupTicket(cmd.Device); t != nil && t.seq == cmd.Seq {
		return t.corr.String()
	}
	if e.mu.TryLock() {
		defer e.mu.Unlock()
		for _, a := range e.pendingRecs {
			if a != nil && a.R.Seq == cmd.Seq && a.R.Device == cmd.Device {
				return a.Corr().String()
			}
		}
	}
	return ""
}
