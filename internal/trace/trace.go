// Package trace is the reproduction of RATracer, the instrumentation
// framework the paper reconfigures (Section II-C): every device command an
// experiment script issues flows through an Interceptor, which first asks
// a checker (RABIT) whether the command is safe, then forwards it for
// execution, then lets the checker inspect the post-state. The interceptor
// also records RAD-style command traces, which the radmine package mines
// for rules (Section II-A).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/recorder"
	otrace "repro/internal/obs/trace"
)

// Record is one traced command, in the style of the Robot Arm Dataset
// (RAD): what was issued, when, and how it ended.
type Record struct {
	Seq     int            `json:"seq"`
	Time    time.Duration  `json:"t"`
	Cmd     action.Command `json:"cmd"`
	Outcome string         `json:"outcome"` // "ok", "blocked", "error"
	Detail  string         `json:"detail,omitempty"`
}

// outcome is a record's outcome, packed to a byte in the command log.
type outcome uint8

const (
	outcomeOK outcome = iota
	outcomeBlocked
	outcomeError
)

// outcomeNames are the Record.Outcome strings, and outcomeCounters the
// outcome counter names, indexed by outcome.
var (
	outcomeNames    = [...]string{"ok", "blocked", "error"}
	outcomeCounters = [...]string{obs.PrefixOutcome + "ok", obs.PrefixOutcome + "blocked", obs.PrefixOutcome + "error"}
)

// entry is one Record as the interceptor stores it: the command's eight
// strings are indices into the interceptor's intern table and the
// outcome is a byte, so an entry is 120 bytes against a Record's 232.
// Seq is both Record.Seq and Cmd.Seq, which record() always sets equal.
type entry struct {
	target   geom.Vec3
	value    float64
	roll     float64
	duration time.Duration
	time     time.Duration
	detail   string
	seq      int
	// Interned Device, Action, TargetName, InsideDevice, Door, Object,
	// FromContainer and ToContainer.
	device, action, targetName, insideDevice uint32
	door, object, from, to                   uint32
	outcome                                  outcome
}

// internTable maps each distinct command string to a uint32 index; index
// 0 is the empty string. A trace names a handful of devices, actions and
// locations, so the table stays small however long the trace grows.
type internTable struct {
	ids  map[string]uint32
	strs []string
}

func (t *internTable) id(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
		t.strs = []string{""}
	}
	id := uint32(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// str returns the string interned as id.
func (t *internTable) str(id uint32) string {
	if id == 0 {
		return ""
	}
	return t.strs[id]
}

// pack stores one record's fields as an entry.
func (t *internTable) pack(cmd action.Command, now time.Duration, o outcome, detail string) entry {
	return entry{
		target: cmd.Target, value: cmd.Value, roll: cmd.Roll, duration: cmd.Duration,
		time: now, detail: detail, seq: cmd.Seq,
		device: t.id(cmd.Device), action: t.id(string(cmd.Action)),
		targetName: t.id(cmd.TargetName), insideDevice: t.id(cmd.InsideDevice),
		door: t.id(cmd.Door), object: t.id(cmd.Object),
		from: t.id(cmd.FromContainer), to: t.id(cmd.ToContainer),
		outcome: o,
	}
}

// unpack rebuilds the Record an entry stores.
func (t *internTable) unpack(e *entry) Record {
	return Record{
		Seq:  e.seq,
		Time: e.time,
		Cmd: action.Command{
			Seq: e.seq, Device: t.str(e.device), Action: action.Label(t.str(e.action)),
			Target: e.target, TargetName: t.str(e.targetName), InsideDevice: t.str(e.insideDevice),
			Door: t.str(e.door), Object: t.str(e.object),
			FromContainer: t.str(e.from), ToContainer: t.str(e.to),
			Value: e.value, Roll: e.roll, Duration: e.duration,
		},
		Outcome: outcomeNames[e.outcome],
		Detail:  e.detail,
	}
}

// Checker is the RABIT side of the interception: Before runs the Fig. 2
// validation (lines 5–10) and returns an error to block the command;
// After runs the post-state comparison (lines 13–15).
type Checker interface {
	Before(cmd action.Command) error
	After(cmd action.Command) error
}

// Hinter is an optional Checker extension: Hint(cur, next) tells the
// checker that next is queued behind the currently executing cur, so it
// may pre-solve and pre-validate next's trajectory off the critical path
// (the engine's speculative lookahead). Hint must not block and must be
// safe to call with commands the checker will never actually see.
type Hinter interface {
	Hint(cur, next action.Command)
}

// Executor forwards a command to the lab for actual execution.
type Executor interface {
	Execute(cmd action.Command) error
	// Now returns the lab's current (simulated) time for trace stamps.
	Now() time.Duration
}

// Interceptor wires scripts, checker, and executor together. It is safe
// for concurrent use, though experiment scripts are sequential.
type Interceptor struct {
	mu       sync.Mutex
	checker  Checker
	executor Executor
	seq      int
	// log is the command trace, packed (see entry); Records unpacks it.
	log      []entry
	interned internTable

	// obs publishes per-command telemetry: the intercept and execute
	// stage histograms and outcome counters (total and per device). All
	// nil-safe when no observer is set.
	obs        *obs.Registry
	hIntercept *obs.Histogram
	hExecute   *obs.Histogram

	// rec is the flight recorder (nil-safe): the interceptor back-fills
	// each command's black-box record with its final outcome and the
	// execution span, which the engine never sees. lastExecNS carries the
	// current call's execute span to the record() annotation.
	rec        *recorder.Recorder
	lastExecNS int64

	// tracer is the causal tracer (nil = tracing off). The interceptor
	// owns the run trace: the first command lazily opens it, every
	// command gets an "intercept" root span bound under (device, seq) so
	// the engine's stages can parent beneath it, and FinishTrace closes
	// the run and makes the tail-sampling decision.
	tracer  *otrace.Tracer
	traceID otrace.TraceID
}

// NewInterceptor builds an interceptor. checker may be nil (tracing
// without RABIT — how RATracer originally ran, and how the no-RABIT
// baselines of the evaluation run).
func NewInterceptor(checker Checker, executor Executor) *Interceptor {
	return &Interceptor{checker: checker, executor: executor}
}

// SetObserver attaches a telemetry registry (nil detaches it).
func (i *Interceptor) SetObserver(reg *obs.Registry) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.obs = reg
	i.hIntercept = reg.Histogram(obs.StageIntercept)
	i.hExecute = reg.Histogram(obs.StageExecute)
}

// SetRecorder attaches a flight recorder (nil detaches it); the
// interceptor annotates each command's record with its outcome and
// execution span.
func (i *Interceptor) SetRecorder(r *recorder.Recorder) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rec = r
}

// SetTracer attaches a causal tracer (nil detaches it). It must be the
// same tracer the checker's engine carries, or the engine's stage spans
// will not find the interceptor's bindings.
func (i *Interceptor) SetTracer(t *otrace.Tracer) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.tracer = t
}

// TraceID returns the current run trace's ID (zero when tracing is off
// or no command has run since the last FinishTrace).
func (i *Interceptor) TraceID() otrace.TraceID {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.traceID
}

// FinishTrace closes the current run trace and makes the tail-sampling
// retention decision, returning the trace's ID and whether it was
// retained. The next command opens a fresh trace.
func (i *Interceptor) FinishTrace() (otrace.TraceID, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.finishTraceLocked()
}

func (i *Interceptor) finishTraceLocked() (otrace.TraceID, bool) {
	id := i.traceID
	i.traceID = otrace.TraceID{}
	if i.tracer == nil || id.IsZero() {
		return id, false
	}
	return id, i.tracer.FinishTrace(id)
}

// rootSpan lazily opens the run trace and starts one command's
// "intercept" root span at start, binding it under (device, seq) for the
// engine's pipeline stages. Returns nil when tracing is off (callers
// hold i.mu).
func (i *Interceptor) rootSpan(cmd action.Command, start time.Time) *otrace.Span {
	if i.tracer == nil {
		return nil
	}
	if i.traceID.IsZero() {
		i.traceID = i.tracer.StartTrace()
	}
	s := i.tracer.StartRoot(i.traceID, obs.StageIntercept, start)
	s.SetAttr("device", cmd.Device)
	s.SetAttr("action", string(cmd.Action))
	s.SetIntAttr("seq", cmd.Seq)
	i.tracer.Bind(cmd.Device, cmd.Seq, s.Context())
	return s
}

// stage publishes one interceptor stage from a single pair of clock
// reads: the stage histogram and the trace span (nil when tracing is
// off) both get end−start, which is returned for the flight record.
func stage(h *obs.Histogram, span *otrace.Span, start, end time.Time, err error) time.Duration {
	d := end.Sub(start)
	h.Observe(d)
	if err != nil {
		span.SetError(err.Error())
	}
	span.EndAt(end)
	return d
}

// execute runs the lab side of one interception as the "execute" stage,
// under root; the flight record's ExecNS gets the same duration as the
// histogram and the span (callers hold i.mu).
func (i *Interceptor) execute(root *otrace.Span, run func() error) error {
	start := time.Now()
	span := i.tracer.StartSpanAt(root.Context(), obs.StageExecute, start)
	err := run()
	i.lastExecNS = stage(i.hExecute, span, start, time.Now(), err).Nanoseconds()
	return err
}

// finish closes one interception begun at start: the intercept stage
// ends, the call's commands are unbound from the root span, and the
// outcome counters count every record appended since mark (callers hold
// i.mu).
func (i *Interceptor) finish(root *otrace.Span, start time.Time, mark int, err error, cmds ...action.Command) {
	stage(i.hIntercept, root, start, time.Now(), err)
	if root != nil {
		for _, cmd := range cmds {
			i.tracer.Unbind(cmd.Device, cmd.Seq)
		}
	}
	if i.obs == nil {
		return
	}
	for k := range i.log[mark:] {
		e := &i.log[mark+k]
		i.obs.Counter(outcomeCounters[e.outcome]).Inc()
		if e.device != 0 {
			i.obs.Counter(obs.PrefixDevice + i.interned.str(e.device) + "." + outcomeNames[e.outcome]).Inc()
		}
	}
}

// Do traces and executes one command: check → execute → post-check. A
// blocked command returns the checker's error without reaching the
// device, mirroring RATracer raising a Python exception to halt the
// experiment.
func (i *Interceptor) Do(cmd action.Command) error {
	return i.do(cmd, action.Command{}, false)
}

// DoLookahead is Do with knowledge of the next queued command: once cmd
// passes its Before check, the checker (if it is a Hinter) is hinted with
// the pair before execution starts, so a speculative lookahead can
// overlap cmd's execution time. Verdicts are identical to Do — the hint
// only warms caches.
func (i *Interceptor) DoLookahead(cmd, next action.Command) error {
	return i.do(cmd, next, true)
}

func (i *Interceptor) do(cmd, next action.Command, lookahead bool) (err error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	start := time.Now()
	mark := len(i.log)
	i.seq++
	cmd.Seq = i.seq
	i.lastExecNS = 0
	root := i.rootSpan(cmd, start)
	defer func() { i.finish(root, start, mark, err, cmd) }()
	if err := cmd.Validate(); err != nil {
		i.record(cmd, outcomeError, err.Error())
		return err
	}
	if i.checker != nil {
		if err := i.checker.Before(cmd); err != nil {
			i.record(cmd, outcomeBlocked, err.Error())
			return err
		}
		if lookahead {
			if h, ok := i.checker.(Hinter); ok {
				h.Hint(cmd, next)
			}
		}
	}
	if err := i.execute(root, func() error { return i.executor.Execute(cmd) }); err != nil {
		i.record(cmd, outcomeError, err.Error())
		// The checker still observes the aftermath: a physical crash is
		// an execution error *and* leaves state worth comparing.
		if i.checker != nil {
			if aerr := i.checker.After(cmd); aerr != nil {
				return fmt.Errorf("%w (post-state: %v)", err, aerr)
			}
		}
		return err
	}
	if i.checker != nil {
		if err := i.checker.After(cmd); err != nil {
			i.record(cmd, outcomeError, err.Error())
			return err
		}
	}
	i.record(cmd, outcomeOK, "")
	return nil
}

// record appends a trace record and back-fills the command's black-box
// record, if a flight recorder is attached (callers hold i.mu).
func (i *Interceptor) record(cmd action.Command, o outcome, detail string) {
	var now time.Duration
	if i.executor != nil {
		now = i.executor.Now()
	}
	i.log = append(i.log, i.interned.pack(cmd, now, o, detail))
	i.rec.Annotate(cmd.Device, cmd.Seq, outcomeNames[o], i.lastExecNS)
}

// ConcurrentExecutor is implemented by environments that can run several
// robot moves simultaneously (the space-multiplexing capability).
type ConcurrentExecutor interface {
	ExecuteConcurrent(cmds []action.Command) error
}

// DoConcurrent traces and executes several commands as one simultaneous
// motion: every command is checked individually before any executes, the
// environment runs them in lockstep, and post-state checks run once the
// motion settles. An empty batch is a no-op.
func (i *Interceptor) DoConcurrent(cmds []action.Command) (err error) {
	if len(cmds) == 0 {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	start := time.Now()
	mark := len(i.log)
	i.lastExecNS = 0
	var root *otrace.Span
	stamped := make([]action.Command, 0, len(cmds))
	defer func() { i.finish(root, start, mark, err, stamped...) }()
	ce, ok := i.executor.(ConcurrentExecutor)
	if !ok {
		return fmt.Errorf("trace: executor cannot run concurrent commands")
	}
	for _, cmd := range cmds {
		i.seq++
		cmd.Seq = i.seq
		if err := cmd.Validate(); err != nil {
			i.record(cmd, outcomeError, err.Error())
			return err
		}
		stamped = append(stamped, cmd)
	}
	// The batch shares one root span — the commands execute as one
	// simultaneous motion — with every (device, seq) bound to it so each
	// command's pipeline stages parent under the same node.
	root = i.rootSpan(stamped[0], start)
	if root != nil {
		root.SetIntAttr("batch", len(stamped))
		for _, cmd := range stamped[1:] {
			i.tracer.Bind(cmd.Device, cmd.Seq, root.Context())
		}
	}
	if i.checker != nil {
		for _, cmd := range stamped {
			if err := i.checker.Before(cmd); err != nil {
				i.record(cmd, outcomeBlocked, err.Error())
				return err
			}
		}
	}
	last := stamped[len(stamped)-1]
	if err := i.execute(root, func() error { return ce.ExecuteConcurrent(stamped) }); err != nil {
		for _, cmd := range stamped {
			i.record(cmd, outcomeError, err.Error())
		}
		// The batch settles with a single post-state check: its commands
		// executed as one simultaneous motion.
		if i.checker != nil {
			if aerr := i.checker.After(last); aerr != nil {
				return fmt.Errorf("%w (post-state: %v)", err, aerr)
			}
		}
		return err
	}
	if i.checker != nil {
		if err := i.checker.After(last); err != nil {
			i.record(last, outcomeError, err.Error())
			return err
		}
	}
	for _, cmd := range stamped {
		i.record(cmd, outcomeOK, "")
	}
	return nil
}

// Records returns a copy of the trace so far.
func (i *Interceptor) Records() []Record {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]Record, len(i.log))
	for k := range i.log {
		out[k] = i.interned.unpack(&i.log[k])
	}
	return out
}

// Len reports how many records the trace holds, without copying them.
func (i *Interceptor) Len() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.log)
}

// Reset clears the trace and sequence counter (between evaluation
// runs), closing any open run trace so the next run starts a fresh one.
func (i *Interceptor) Reset() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.log = nil
	i.interned = internTable{}
	i.seq = 0
	i.finishTraceLocked()
}

// Replay feeds a recorded command stream back through an interceptor:
// offline checking of a captured experiment against a fresh lab — the
// "testing experiment scripts" use the paper's three-stage framework
// exists for, applied to traces instead of live scripts. Replay stops at
// the first error (alert or execution failure). The recorded stream is
// the lookahead's ideal input — the next command is always known — so
// each command is replayed with a hint for its successor.
func Replay(i *Interceptor, records []Record) error {
	for idx, r := range records {
		var err error
		if idx+1 < len(records) {
			err = i.DoLookahead(r.Cmd, records[idx+1].Cmd)
		} else {
			err = i.Do(r.Cmd)
		}
		if err != nil {
			return fmt.Errorf("trace: replaying #%d %s: %w", r.Seq, r.Cmd, err)
		}
	}
	return nil
}

// WriteJSONL streams records as JSON lines — the on-disk trace format.
func WriteJSONL(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, r := range records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("trace: encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL loads a JSONL trace.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return out, nil
}
