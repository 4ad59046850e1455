package core

import (
	"time"

	"repro/internal/action"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
	"repro/internal/rules"
	"repro/internal/state"
	"repro/internal/trace"
)

// The motion fast path's engine half. The simulator's verdict cache is
// only sound under the deck-epoch contract: every commit that changes a
// deck-relevant model variable (state.Key.DeckRelevant — doors, held
// objects, arm-inside flags) must bump the simulator's epoch atomically
// with publishing the changed model. The engine is the model owner, so
// the contract lives here: commitModel detects deck-relevant changes in
// the very section that holds stateMu for the commit, and Hint runs the
// speculative lookahead that pre-validates the next queued motion against
// a (model, epoch) pairing captured under the same lock.

// deckSpeculator is the simulator's optional motion fast-path surface
// (see sim.Simulator): the deck epoch that keys its verdict cache, and
// the speculative lookahead that pre-solves and pre-validates a queued
// motion command. A non-empty corr tags the cached verdict with the
// speculation's correlation ID, so the check that later consumes it can
// name the speculation; a valid parent joins the lookahead's child spans
// to the hinting command's trace.
type deckSpeculator interface {
	DeckEpoch() uint64
	BumpDeckEpoch()
	SpeculateAfter(prior, next action.Command, model state.Snapshot, epoch uint64, corr string, parent otrace.SpanContext) bool
}

var _ trace.Hinter = (*Engine)(nil)

// WithSpeculation toggles the speculative lookahead (on by default when
// the attached simulator supports it). Epoch bumping is not affected:
// it is a correctness obligation, not an optimisation.
func WithSpeculation(on bool) Option {
	return func(e *Engine) { e.specOff = !on }
}

// commitModel is the single commit section both pipelines share:
// S_current ← pending edits, then observed facts, under one stateMu
// write section the caller holds. When the attached simulator keeps a
// deck epoch, any deck-relevant change bumps it inside the same critical
// section, so no trajectory check can ever pair the new model with the
// old epoch. The returned value is the deck epoch as of the commit
// (post-bump; 0 without an epoch-keeping simulator) — the flight
// recorder stamps it next to the epoch the command validated under.
func (e *Engine) commitModel(pending *state.Overlay, observed state.Snapshot, cmd action.Command) uint64 {
	deckChanged := false
	detect := e.spec != nil
	keys := len(e.model)
	if pending != nil {
		if detect {
			deckChanged = overlayChangesDeck(pending, e.model)
		}
		pending.ApplyTo(e.model)
	}
	for k, v := range observed {
		if detect && !deckChanged && k.DeckRelevant() {
			if cur, ok := e.model[k]; !ok || !cur.Equal(v) {
				deckChanged = true
			}
		}
		e.model[k] = v
	}
	// Without deletes a commit can only add keys, so an unchanged length
	// means an unchanged key set and a still-exact view index.
	if e.views != nil && (len(e.model) != keys || (pending != nil && pending.HasDeletes())) {
		e.syncViews(pending, observed)
	}
	if deckChanged {
		e.spec.BumpDeckEpoch()
	}
	var epoch uint64
	if detect {
		epoch = e.spec.DeckEpoch()
	}
	if e.sim != nil && cmd.Action.IsRobotMotion() {
		e.sim.Observe(cmd, e.model)
	}
	return epoch
}

// overlayChangesDeck reports whether committing o into model would change
// any deck-relevant variable. An edit later overridden back to the model
// value can read as a change — over-bumping only invalidates verdicts
// early, never late, so the conservative answer is the safe one.
func overlayChangesDeck(o *state.Overlay, model state.Snapshot) bool {
	changed := false
	o.RangeEdits(func(k state.Key, v state.Value, present bool) bool {
		if !k.DeckRelevant() {
			return true
		}
		cur, ok := model[k]
		if present {
			if !ok || !cur.Equal(v) {
				changed = true
			}
		} else if ok {
			changed = true
		}
		return !changed
	})
	return changed
}

// Hint speculatively pre-validates next — the command queued behind cur —
// while cur executes, warming the simulator's plan and verdict caches off
// the critical path. It never blocks: at most one speculation runs at a
// time and further hints are dropped (counted), because a backed-up
// speculation queue would just re-derive work the on-path check is about
// to do anyway. The lookahead goroutine captures the model clone and the
// deck epoch under one stateMu read lock — the same pairing discipline
// the on-path trajectory check uses — so a mis-speculation can only
// strand a verdict under a dead epoch, never poison a future check.
func (e *Engine) Hint(cur, next action.Command) {
	if e.spec == nil || e.specOff || !next.Action.IsRobotMotion() {
		return
	}
	if started, stopped := e.adminState(); !started || stopped != nil {
		return
	}
	cur = rules.NormalizeCommand(e.rb.Lab(), cur)
	next = rules.NormalizeCommand(e.rb.Lab(), next)
	// Resolve the hinting command's correlation ID and trace binding
	// before the gate: the speculation's record and spans must link back
	// to the command whose execution window it overlaps, even though that
	// command will likely have settled (and unbound its trace) by the
	// time anything consumes the cached verdict.
	parent := e.corrOf(cur)
	tctx := e.tracer.Bound(cur.Device, cur.Seq)
	if !e.specBusy.CompareAndSwap(false, true) {
		e.cSpecDropped.Inc()
		return
	}
	e.specWG.Add(1)
	go func() {
		defer e.specWG.Done()
		defer e.specBusy.Store(false)
		e.stateMu.RLock()
		model := e.model.Clone()
		epoch := e.spec.DeckEpoch()
		e.stateMu.RUnlock()
		spec := e.rec.BeginSpec(parent, next)
		specStart := time.Now()
		// The speculation span joins the hinting command's trace: the
		// lookahead is causally an effect of cur's execution window, and a
		// verdict it caches may explain a later command's fast pass.
		sspan := e.tracer.StartSpanAt(tctx, stageSpeculate, specStart)
		sspan.SetAttr("device", next.Device)
		sspan.SetIntAttr("seq", next.Seq)
		corr := ""
		if spec != nil {
			corr = spec.Corr().String()
			if tctx.Valid() {
				spec.R.Trace = tctx.Trace.String()
			}
			spec.R.TNS = e.env.Now().Nanoseconds()
			spec.R.Verdict = recorder.Verdict{Source: recorder.SourceSpeculative, EpochAtValidation: epoch}
		}
		ran := e.spec.SpeculateAfter(cur, next, model, epoch, corr, sspan.Context())
		specEnd := time.Now()
		if ran {
			e.cSpeculations.Inc()
		} else {
			sspan.SetAttr("skipped", "true")
		}
		e.stage(stageCtx{rec: spec}, stageSpeculate, sspan, specStart, specEnd, nil)
		if spec != nil {
			if !ran {
				spec.R.Outcome = "skipped"
			}
			spec.Commit()
			spec.Release()
		}
	}()
}

// WaitSpeculation blocks until any in-flight speculative lookahead has
// settled — determinism for tests and benchmarks; production flows never
// need it.
func (e *Engine) WaitSpeculation() { e.specWG.Wait() }
