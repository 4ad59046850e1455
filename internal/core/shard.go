package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/action"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	"repro/internal/state"
)

// The sharded pipeline.
//
// A command qualifies for sharding when nothing about checking it reaches
// beyond the devices it names: it is not robot motion (trajectory checks
// read arm + full deck geometry) or manipulation (pick/place transitions
// touch location-owner devices), and the rulebase index reports that every
// rule in its label's bucket declares ReadsCommand. Such a command locks
// only its own devices' shard mutexes, which it holds from Before through
// After — execution included — so per-device command cycles serialize
// while disjoint devices proceed concurrently. Holding the shard across
// the cycle is what keeps the Fig. 2 algebra intact per device: the model
// slice a shard validates against cannot change under it, because the
// only writers of a device's keys are that device's own commands (faults
// only suppress a device's own effects) and its commands are serialized
// by the shard lock.
//
// Exogenous sensor variables are the one cross-cutting input: they are
// fetched on every path (scoped fetches always include all sensors) and
// excluded from the malfunction comparison, so concurrent commits of
// fresh sensor readings are benign.

// shardTicket tracks one in-flight sharded command, keyed by its device
// (sound: the device's shard mutex admits one command cycle at a time,
// and global-path commands never touch the ticket table).
type shardTicket struct {
	scope    []string // sorted, deduplicated device/container IDs
	scopeSet map[string]bool
	locks    []*sync.Mutex // acquired in scope order
	expected *state.Overlay
	// stageCtx holds the command's flight record and trace binding,
	// resolved once in Before and reused by After's stages.
	stageCtx
	// seq and corr identify the command and its flight record for corrOf,
	// which must not read the record handle: it is recycled after release.
	seq  int
	corr recorder.CorrID
}

// routeSharded decides the pipeline for a command.
func (e *Engine) routeSharded(cmd action.Command) bool {
	if e.serial {
		return false
	}
	if cmd.Action.IsRobotMotion() || cmd.Action.IsManipulation() {
		return false
	}
	return !e.rb.LabelReadsGlobal(cmd.Action)
}

// shardScope lists the devices and containers a command can read or
// write: the IDs it names, plus the container the model currently places
// inside its device (dosing and start-action rules read its contents;
// dosing writes them).
func (e *Engine) shardScope(cmd action.Command) []string {
	ids := make([]string, 0, 6)
	add := func(id string) {
		if id != "" {
			ids = append(ids, id)
		}
	}
	add(cmd.Device)
	add(cmd.InsideDevice)
	add(cmd.Object)
	add(cmd.FromContainer)
	add(cmd.ToContainer)
	e.stateMu.RLock()
	inside := e.model.InsideOf(cmd.Device)
	e.stateMu.RUnlock()
	add(inside)
	sort.Strings(ids)
	out := ids[:0]
	for _, id := range ids {
		if len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// lockScope acquires the scope's shard mutexes. The table lookup runs
// under shardMu; the mutexes themselves are locked after shardMu is
// released, in sorted scope order, which makes cross-command acquisition
// deadlock-free.
func (e *Engine) lockScope(scope []string) []*sync.Mutex {
	e.shardMu.Lock()
	locks := make([]*sync.Mutex, len(scope))
	for i, id := range scope {
		m, ok := e.shards[id]
		if !ok {
			m = new(sync.Mutex)
			e.shards[id] = m
		}
		locks[i] = m
	}
	e.shardMu.Unlock()
	for _, m := range locks {
		m.Lock()
	}
	return locks
}

// registerTicket publishes the in-flight command so the global pipeline
// can exclude its devices' keys from compare/commit.
func (e *Engine) registerTicket(device string, t *shardTicket) {
	e.shardMu.Lock()
	for _, id := range t.scope {
		e.inFlight[id]++
	}
	e.tickets[device] = t
	e.shardMu.Unlock()
}

// releaseTicket retires the command: bookkeeping first, then the shard
// mutexes in reverse order.
func (e *Engine) releaseTicket(device string, t *shardTicket) {
	e.shardMu.Lock()
	e.shardGen++
	for _, id := range t.scope {
		if e.inFlight[id]--; e.inFlight[id] <= 0 {
			delete(e.inFlight, id)
		}
		e.released[id] = e.shardGen
	}
	delete(e.tickets, device)
	e.shardMu.Unlock()
	for i := len(t.locks) - 1; i >= 0; i-- {
		t.locks[i].Unlock()
	}
}

// retireTicket releases a settled command's ticket, then recycles its
// flight-record handle, which nothing can reach once the ticket is out
// of the table.
func (e *Engine) retireTicket(device string, t *shardTicket) {
	e.releaseTicket(device, t)
	t.rec.Release()
}

// lookupTicket finds the in-flight ticket for a device, if any.
func (e *Engine) lookupTicket(device string) *shardTicket {
	e.shardMu.Lock()
	defer e.shardMu.Unlock()
	return e.tickets[device]
}

// shardGeneration reads the count of shard ticket releases so far.
func (e *Engine) shardGeneration() uint64 {
	e.shardMu.Lock()
	defer e.shardMu.Unlock()
	return e.shardGen
}

// dropInFlight removes from a full observed snapshot every key owned by a
// device that a sharded command holds now or has released since
// generation since, read before the snapshot was fetched. Those keys'
// transitions belong to the sharded command's own After; comparing or
// committing them here would raise spurious malfunctions (the global path
// would see effects it has no expectation for, or a stale fetch of
// effects the sharded command already committed) or clobber fresher
// expectations. The caller holds stateMu, so a device whose sharded
// command commits after the fetch is caught: it is in flight or was
// released after since, until the caller lets go.
func (e *Engine) dropInFlight(observed state.Snapshot, since uint64) {
	e.shardMu.Lock()
	defer e.shardMu.Unlock()
	if len(e.inFlight) == 0 && e.shardGen == since {
		return
	}
	for k := range observed {
		if args := k.Args(); len(args) > 0 && (e.inFlight[args[0]] > 0 || e.released[args[0]] > since) {
			delete(observed, k)
		}
	}
}

// fetchScoped obtains the observed state of the scope's devices plus all
// sensors. Environments without scoped fetch are polled in full and
// filtered, which keeps the two fetch paths observationally identical.
func (e *Engine) fetchScoped(t *shardTicket) state.Snapshot {
	if e.scopedEnv != nil {
		observed := e.scopedEnv.FetchStateScoped(t.scope)
		e.filterScope(observed, t.scopeSet)
		return observed
	}
	observed := e.env.FetchState()
	e.filterScope(observed, t.scopeSet)
	return observed
}

// filterScope trims an observed snapshot to keys owned by the scope,
// keeping exogenous variables (sensor readings participate in every
// path's commit and are compare-exempt).
func (e *Engine) filterScope(observed state.Snapshot, scope map[string]bool) {
	for k := range observed {
		if k.IsExogenous() {
			continue
		}
		args := k.Args()
		if len(args) == 0 || !scope[args[0]] {
			delete(observed, k)
		}
	}
}

// beforeSharded validates a command under its devices' shard locks. On
// success the locks stay held until afterSharded releases them.
func (e *Engine) beforeSharded(cmd action.Command, start time.Time, fs **Alert) error {
	started, stopped := e.adminState()
	if !started {
		return fmt.Errorf("core: engine not started")
	}
	if stopped != nil {
		return fmt.Errorf("%w: %s", ErrStopped, stopped.Error())
	}
	scope := e.shardScope(cmd)
	t := &shardTicket{scope: scope, scopeSet: make(map[string]bool, len(scope))}
	for _, id := range scope {
		t.scopeSet[id] = true
	}
	t.locks = e.lockScope(scope)
	e.registerTicket(cmd.Device, t)
	// An alert elsewhere may have landed while we waited for the shard;
	// honor it before validating (same check the global path runs).
	if _, stopped := e.adminState(); stopped != nil {
		e.releaseTicket(cmd.Device, t)
		return fmt.Errorf("%w: %s", ErrStopped, stopped.Error())
	}
	t.stageCtx = e.traceOf(cmd, e.beginRecord(cmd, recorder.PathSharded))
	t.seq, t.corr = cmd.Seq, t.rec.Corr()
	e.stateMu.RLock()
	vs := e.rb.ValidateObserved(e.model, cmd, e.ruleMetrics, t.trace)
	if len(vs) == 0 {
		t.expected = e.rb.ExpectedOverlay(e.model, cmd)
	}
	// The ticket's scope IS the read scope the rules validated over.
	t.rec.CapturePre(e.model, e.views, t.scope)
	e.stateMu.RUnlock()
	validateEnd := time.Now()
	var al *Alert
	if len(vs) > 0 {
		e.releaseTicket(cmd.Device, t)
		al = e.raise(Alert{Kind: AlertInvalidCommand, Cmd: cmd, Violations: vs}, fs)
	}
	e.stage(t.stageCtx, obs.StageValidate, nil, start, validateEnd, al)
	if al != nil {
		e.recordAlert(t.rec, al)
		t.rec.Release() // the ticket is already released
		return al
	}
	t.rec.CaptureExpected(t.expected)
	return nil
}

// afterSharded settles a sharded command: scoped fetch, compare against
// the ticket's expectation, in-place commit, shard release.
func (e *Engine) afterSharded(cmd action.Command, start time.Time, fs **Alert) error {
	t := e.lookupTicket(cmd.Device)
	if t == nil {
		// Before never shard-registered this command (e.g. the engine
		// restarted mid-cycle); fall back to the global settle.
		return e.afterGlobal(cmd, start, fs)
	}
	defer e.retireTicket(cmd.Device, t)
	if _, stopped := e.adminState(); stopped != nil {
		return fmt.Errorf("%w: %s", ErrStopped, stopped.Error())
	}
	e.cCommands.Inc()
	observed := e.fetchScoped(t)
	fetchEnd := time.Now()
	e.stateMu.RLock()
	ms := state.CompareObservedView(t.expected, observed)
	e.stateMu.RUnlock()
	compareEnd := time.Now()
	t.rec.CaptureObserved(observed, nil, t.scope)
	e.stage(t.stageCtx, obs.StageFetch, nil, start, fetchEnd, nil)
	var al *Alert
	if len(ms) > 0 {
		al = e.raise(Alert{Kind: AlertMalfunction, Cmd: cmd, Mismatches: ms}, fs)
	}
	e.stage(t.stageCtx, obs.StageCompare, nil, fetchEnd, compareEnd, al)
	if al != nil {
		e.recordAlert(t.rec, al)
		return al
	}
	// Sharded commands are never robot motion, but they do flip doors and
	// held objects — exactly the deck-relevant changes the commit section
	// must pair with an epoch bump (see commitModel).
	e.stateMu.Lock()
	epoch := e.commitModel(t.expected, observed, cmd)
	e.stateMu.Unlock()
	if t.rec != nil {
		t.rec.R.Verdict.EpochAtCommit = epoch
		t.rec.Commit()
	}
	return nil
}
