// Package recorder is RABIT's flight recorder: a lock-sharded,
// allocation-bounded ring buffer that keeps a black-box window of
// structured per-command records — command and arguments, correlation
// ID, rule IDs evaluated with their read-scoped state views, sim verdict
// provenance, the pipeline path taken, and per-stage span timings. On
// any alert the surrounding window is frozen and written out as a
// self-contained incident bundle (JSONL records plus a manifest), so the
// evidence an operator needs to reconstruct why the safety system fired
// is already on disk when it does.
//
// The recorder is an observer, never an actor: every entry point is
// nil-safe, records are captured into preallocated ring slots guarded by
// per-shard mutexes keyed on device, and nothing in it can change a
// verdict — the eval harness's recorder-on/off property test holds it to
// that. The capture path stores raw facts and allocates nothing: record
// handles are pooled, their capture buffers reused, and each ring slot
// owns the backing arrays its views are copied into. Rendering to text
// happens only when a window is read.
package recorder

import (
	"sync"
	"sync/atomic"

	"repro/internal/action"
	"repro/internal/obs"
	"repro/internal/state"
)

// DefaultDepth is the ring's total capacity when Options.Depth is unset:
// enough to hold the full recent history of a testbed workflow and a
// couple of seconds of sharded-fleet traffic, at a bounded few hundred
// KB of records.
const DefaultDepth = 1024

// numShards spreads ring inserts across independently locked segments so
// concurrent sharded-pipeline commands do not serialize on the recorder.
const numShards = 8

// Options configures a Recorder.
type Options struct {
	// Depth is the total ring capacity (records), divided across the
	// shards. Zero or negative selects DefaultDepth.
	Depth int
	// Dir is the incident-bundle directory; "" records to the ring only
	// (the window is still inspectable via Window) but writes nothing.
	Dir string
	// Tag is a human label folded into bundle directory names and
	// manifests — the eval harness tags each bug injection's bundles.
	Tag string
	// Obs receives the recorder's own counters (records, incidents,
	// write errors). Nil disables them.
	Obs *obs.Registry
}

// recShard is one independently locked ring segment.
type recShard struct {
	mu   sync.Mutex
	buf  []Record
	next int // slot the next push lands in
	n    int // filled slots, ≤ len(buf)
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use and nil-safe, so callers wire it unconditionally and pass nil to
// disable recording.
type Recorder struct {
	shards [numShards]recShard
	ord    atomic.Uint64 // global insertion order, for window sorting
	corr   atomic.Uint64 // correlation-ID source

	dir string
	tag string

	// bundleMu serializes bundle directory allocation and writing.
	bundleMu  sync.Mutex
	bundleSeq int

	errMu   sync.Mutex
	lastErr error

	cRecords   *obs.Counter
	cIncidents *obs.Counter
	cErrors    *obs.Counter

	// handles recycles Active handles together with their capture buffers.
	handles sync.Pool
}

// New builds a recorder with preallocated ring storage.
func New(o Options) *Recorder {
	depth := o.Depth
	if depth <= 0 {
		depth = DefaultDepth
	}
	per := depth / numShards
	if per < 1 {
		per = 1
	}
	r := &Recorder{dir: o.Dir, tag: o.Tag}
	for i := range r.shards {
		r.shards[i].buf = make([]Record, per)
	}
	r.cRecords = o.Obs.Counter(obs.CounterRecorderRecords)
	r.cIncidents = o.Obs.Counter(obs.CounterRecorderIncidents)
	r.cErrors = o.Obs.Counter(obs.CounterRecorderErrors)
	return r
}

// On reports whether recording is enabled. Nil-safe (false).
func (r *Recorder) On() bool { return r != nil }

// Depth returns the total ring capacity. Nil-safe (0).
func (r *Recorder) Depth() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		n += len(r.shards[i].buf)
	}
	return n
}

// Dir returns the incident-bundle directory ("" when bundles are
// disabled). Nil-safe.
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// Reset clears the ring and restarts correlation-ID, insertion-order,
// and bundle-sequence numbering under a new tag. It is the pooled-stack
// reset path: a campaign runner reuses one recorder across scenarios,
// re-tagging it per scenario so bundle names stay unique (and identical
// at any worker count) even when many recorders share one incident
// directory. The caller must guarantee quiescence — no commands in
// flight. Nil-safe.
func (r *Recorder) Reset(tag string) {
	if r == nil {
		return
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.next, sh.n = 0, 0
		sh.mu.Unlock()
	}
	r.ord.Store(0)
	r.corr.Store(0)
	r.bundleMu.Lock()
	r.bundleSeq = 0
	r.tag = tag
	r.bundleMu.Unlock()
	r.errMu.Lock()
	r.lastErr = nil
	r.errMu.Unlock()
}

// Err returns the last bundle-write error, if any. Nil-safe.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.lastErr
}

func (r *Recorder) fail(err error) {
	r.errMu.Lock()
	r.lastErr = err
	r.errMu.Unlock()
	r.cErrors.Inc()
}

// Active is one record under construction. The owning pipeline goroutine
// fills R freely — views through the Capture methods — until
// Commit/CommitIncident copies it into the ring. The handle stays
// readable until Release hands it, and its capture buffers, back for
// reuse; after that it must not be touched again.
type Active struct {
	rec *Recorder
	R   Record
}

// handle takes a recycled handle, or a new one, with R zeroed but its
// capture buffers kept.
func (r *Recorder) handle() *Active {
	if a, ok := r.handles.Get().(*Active); ok {
		return a
	}
	return &Active{rec: r}
}

// Begin opens a command record with a fresh correlation ID. Nil-safe
// (returns nil, and a nil *Active tolerates every method).
func (r *Recorder) Begin(cmd action.Command, path string) *Active {
	if r == nil {
		return nil
	}
	a := r.handle()
	a.R.corr = CorrID{n: r.corr.Add(1)}
	a.R.Kind = KindCommand
	a.R.Path = path
	a.R.Seq = cmd.Seq
	a.R.Device = cmd.Device
	a.R.Action = string(cmd.Action)
	a.R.cmd, a.R.hasCmd = cmd, true
	return a
}

// BeginSpec opens a speculation record linked to the command whose
// execution window the lookahead overlaps (parent may be "" when the
// hinting command could not be resolved). Nil-safe.
func (r *Recorder) BeginSpec(parent string, next action.Command) *Active {
	if r == nil {
		return nil
	}
	a := r.handle()
	a.R.corr = CorrID{n: r.corr.Add(1), spec: true}
	a.R.Parent = parent
	a.R.Kind = KindSpeculation
	a.R.Path = PathSpeculative
	a.R.Device = next.Device
	a.R.Action = string(next.Action)
	a.R.cmd, a.R.hasCmd = next, true
	return a
}

// Corr returns the record's correlation ID. Nil-safe (the zero ID).
func (a *Active) Corr() CorrID {
	if a == nil {
		return CorrID{}
	}
	return a.R.corr
}

// CapturePre captures the read-scoped model view the rules validate
// against: the keys of s owned by ids, plus exogenous sensor keys. ix,
// when non-nil, must index a key set that contains every key of s; it
// spares the scan of s (keys it lists that s lacks are skipped). The
// caller holds the lock that makes s (and ix) stable. Nil-safe.
func (a *Active) CapturePre(s state.Snapshot, ix *ViewIndex, ids []string) {
	if a != nil {
		a.R.pre = appendView(a.R.pre, s, ix, ids)
	}
}

// CaptureExpected captures the S_expected overlay's edits. Nil-safe.
func (a *Active) CaptureExpected(o *state.Overlay) {
	if a != nil {
		a.R.expected = appendEdits(a.R.expected, o)
	}
}

// CaptureObserved captures the post-execution fetch, scoped and indexed
// like CapturePre. Nil-safe.
func (a *Active) CaptureObserved(s state.Snapshot, ix *ViewIndex, ids []string) {
	if a != nil {
		a.R.observed = appendView(a.R.observed, s, ix, ids)
	}
}

// Commit pushes the finished record into the ring. Nil-safe.
func (a *Active) Commit() {
	if a == nil {
		return
	}
	a.rec.push(&a.R)
}

// CommitIncident pushes the finished record — an alert trigger — and
// freezes the window into an incident bundle (when a bundle directory is
// configured). Nil-safe.
func (a *Active) CommitIncident() {
	if a == nil {
		return
	}
	a.rec.push(&a.R)
	a.rec.writeBundle(a.R)
}

// Release recycles the handle and its capture buffers. The caller must
// guarantee nothing reads the handle afterwards. Nil-safe.
func (a *Active) Release() {
	if a == nil {
		return
	}
	a.R = Record{Rules: a.R.Rules[:0], pre: a.R.pre[:0], expected: a.R.expected[:0], observed: a.R.observed[:0]}
	a.rec.handles.Put(a)
}

// push copies a record into its device's shard, stamping the global
// insertion order. The slot keeps its own Rules and view backing arrays
// and copies the record's entries into them, so the record's buffers
// are free for reuse as soon as push returns.
func (r *Recorder) push(rec *Record) {
	ord := r.ord.Add(1)
	sh := &r.shards[shardOf(rec.Device)]
	sh.mu.Lock()
	slot := &sh.buf[sh.next]
	rules, pre, exp, obsd := slot.Rules[:0], slot.pre[:0], slot.expected[:0], slot.observed[:0]
	*slot = *rec
	slot.Ord = ord
	slot.Rules = append(rules, rec.Rules...)
	slot.pre = append(pre, rec.pre...)
	slot.expected = append(exp, rec.expected...)
	slot.observed = append(obsd, rec.observed...)
	sh.next = (sh.next + 1) % len(sh.buf)
	if sh.n < len(sh.buf) {
		sh.n++
	}
	sh.mu.Unlock()
	r.cRecords.Inc()
}

// shardOf maps a device onto its ring shard by the 32-bit FNV-1a hash of
// its name, computed inline so the hot path neither allocates a hasher
// nor converts the name to bytes.
func shardOf(device string) int {
	h := uint32(2166136261)
	for i := 0; i < len(device); i++ {
		h ^= uint32(device[i])
		h *= 16777619
	}
	return int(h % numShards)
}

// Annotate back-fills the most recent ring record for (device, seq) with
// the interceptor's view of the command: its final outcome and the
// execution span. A record that already fell off the ring is silently
// skipped — annotation is best-effort by design. Nil-safe.
func (r *Recorder) Annotate(device string, seq int, outcome string, execNS int64) {
	if r == nil {
		return
	}
	sh := &r.shards[shardOf(device)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := len(sh.buf)
	for k := 0; k < sh.n; k++ {
		rec := &sh.buf[((sh.next-1-k)%n+n)%n]
		if rec.Kind == KindCommand && rec.Seq == seq && rec.Device == device {
			rec.Outcome = outcome
			rec.Spans.ExecNS = execNS
			return
		}
	}
}

// Window snapshots the full ring, oldest first (global insertion order),
// rendering each copy under its shard's lock: correlation ID, command
// string and view maps are materialized from the raw facts, and Rules is
// copied, so the returned records keep their views after the ring wraps
// and reuses the slots' arrays. Nil-safe.
func (r *Recorder) Window() []Record {
	if r == nil {
		return nil
	}
	var out []Record
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n := len(sh.buf)
		for k := 0; k < sh.n; k++ {
			out = append(out, sh.buf[((sh.next-sh.n+k)%n+n)%n])
			out[len(out)-1].render()
		}
		sh.mu.Unlock()
	}
	sortRecords(out)
	return out
}
