package recorder

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/action"
	"repro/internal/state"
)

// Record kinds.
const (
	// KindCommand is one intercepted command's pass through the Fig. 2
	// algorithm.
	KindCommand = "command"
	// KindSpeculation is one run of the single-flight lookahead worker.
	KindSpeculation = "speculation"
	// KindSnapshot is a manually filed window freeze — no alert fired;
	// an external judge (the campaign oracle) decided the window is
	// evidence. See Recorder.FileSnapshot.
	KindSnapshot = "snapshot"
)

// Pipeline paths (Record.Path).
const (
	// PathGlobal is the engine's global single-lock pipeline.
	PathGlobal = "global"
	// PathSharded is the per-device sharded pipeline.
	PathSharded = "sharded"
	// PathSpeculative marks lookahead records (never an on-path check).
	PathSpeculative = "speculative"
)

// Verdict sources: where a trajectory verdict came from.
const (
	// SourceColdSolve: the simulator planned and swept the motion on the
	// critical path.
	SourceColdSolve = "cold_solve"
	// SourceCacheHit: the verdict was served from the epoch-keyed verdict
	// cache, originally computed by an earlier on-path check.
	SourceCacheHit = "cache_hit"
	// SourceSpeculative: the verdict was served from the cache and had
	// been pre-computed by the speculative lookahead worker — the record's
	// SpecCorr names the speculation that produced it.
	SourceSpeculative = "speculative"
)

// Verdict is a trajectory verdict's provenance: where it came from and
// the deck epochs it was validated and committed under. A divergence
// between the two epochs on a passing command is exactly the window the
// epoch-keyed cache exists to close, so forensics wants both.
type Verdict struct {
	Source string `json:"source,omitempty"`
	// EpochAtValidation is the deck epoch the trajectory check paired
	// with the model it read.
	EpochAtValidation uint64 `json:"epoch_at_validation,omitempty"`
	// EpochAtCommit is the deck epoch after the command's After committed
	// (post any bump the commit itself caused).
	EpochAtCommit uint64 `json:"epoch_at_commit,omitempty"`
	// SpecCorr is the correlation ID of the speculation whose cached
	// verdict this check consumed (Source == SourceSpeculative).
	SpecCorr string `json:"spec_corr,omitempty"`
}

// Spans are the per-stage wall-clock timings of one record, mirroring
// the engine's stage histograms plus the interceptor's execute span.
type Spans struct {
	ValidateNS   int64 `json:"validate_ns,omitempty"`
	TrajectoryNS int64 `json:"trajectory_ns,omitempty"`
	FetchNS      int64 `json:"fetch_ns,omitempty"`
	CompareNS    int64 `json:"compare_ns,omitempty"`
	ExecNS       int64 `json:"exec_ns,omitempty"`
}

// Record is one flight-recorder entry — the black box's unit of capture.
// A live record keeps raw facts: its correlation ID as a number, its
// command unrendered, and its state views as (key, value, present)
// entries copied out of the model under the lock the check holds. Keys
// and values are immutable, so a record can never observe mutations of
// live engine state. Corr, Cmd and the view maps are rendered only when
// a window is read (Window, incident bundles).
type Record struct {
	// Ord is the recorder-global insertion order (1-based).
	Ord uint64 `json:"ord"`
	// Corr is the record's correlation ID: "c-…" for commands, "s-…" for
	// speculations. Live records carry it as corr and render it lazily.
	Corr string `json:"corr"`
	corr CorrID
	// Parent links a speculation to the command whose execution window
	// it overlapped (the Hint caller).
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Path   string `json:"path,omitempty"`

	Seq    int    `json:"seq,omitempty"`
	Device string `json:"device,omitempty"`
	Action string `json:"action,omitempty"`
	// Cmd is the rendered command. Rendering costs an fmt pass per
	// record, so live records carry the raw command (cmd below) instead
	// and Cmd is materialized only when a window is snapshotted.
	Cmd string `json:"cmd,omitempty"`
	// cmd backs lazy Cmd rendering; hasCmd guards the zero Command.
	cmd    action.Command
	hasCmd bool
	// TNS is the lab clock when the record opened (command issue time).
	TNS int64 `json:"t_ns,omitempty"`
	// Trace is the causal trace ID (32 hex chars) of the run that
	// produced this record — the key linking a bundle to its retained
	// trace tree (see internal/obs/trace). Empty when tracing is off.
	Trace string `json:"trace_id,omitempty"`

	// Rules are the rule IDs the validation stage evaluated for this
	// command (its label bucket filtered to matching devices).
	Rules []string `json:"rules,omitempty"`
	// Pre is the read-scoped model view the rules validated against.
	Pre map[string]string `json:"pre,omitempty"`
	// Expected is the S_expected overlay's edits (deletes render as ∅).
	Expected map[string]string `json:"expected,omitempty"`
	// Observed is the post-execution fetch, scoped like Pre.
	Observed map[string]string `json:"observed,omitempty"`
	// pre, expected and observed are the captured facts behind the three
	// view maps (see Active.CapturePre and friends).
	pre, expected, observed []fact

	Verdict Verdict `json:"verdict"`
	Spans   Spans   `json:"spans"`

	// Outcome/ExecNS are the interceptor's annotation ("ok", "blocked",
	// "error"); empty for records it never settled.
	Outcome string `json:"outcome,omitempty"`
	// SettledBy names the batch-mate whose After settled this command
	// (concurrent global batches share one post-state check).
	SettledBy string `json:"settled_by,omitempty"`

	AlertKind string `json:"alert_kind,omitempty"`
	Alert     string `json:"alert,omitempty"`
	// AlertTNS is the lab clock at the alert; AlertTNS−TNS is the
	// detection latency forensics aggregates.
	AlertTNS int64 `json:"alert_t_ns,omitempty"`
	// Violations are violated rule IDs (invalid-command alerts);
	// Mismatches are diverged state keys (malfunction alerts).
	Violations []string `json:"violations,omitempty"`
	Mismatches []string `json:"mismatches,omitempty"`
}

// render materializes Corr, Cmd and the view maps from the stored raw
// facts, and gives the record its own copy of Rules. Only called on
// snapshot copies — live ring slots keep the cheap unrendered form and
// reuse their backing arrays — so a rendered record shares no mutable
// storage with the ring.
func (rec *Record) render() {
	if rec.Corr == "" {
		rec.Corr = rec.corr.String()
	}
	if rec.Cmd == "" && rec.hasCmd {
		rec.Cmd = rec.cmd.String()
	}
	if len(rec.Rules) > 0 {
		rec.Rules = append([]string(nil), rec.Rules...)
	} else {
		rec.Rules = nil
	}
	rec.Pre, rec.pre = renderFacts(rec.Pre, rec.pre), nil
	rec.Expected, rec.expected = renderFacts(rec.Expected, rec.expected), nil
	rec.Observed, rec.observed = renderFacts(rec.Observed, rec.observed), nil
}

// CorrID is a correlation ID kept as its number until it is read: String
// renders "c-000042" for a command (or snapshot) and "s-000042" for a
// speculation. The zero CorrID renders "".
type CorrID struct {
	n    uint64
	spec bool
}

// String renders the ID as prefix-%06d, without fmt.
func (c CorrID) String() string {
	if c.n == 0 {
		return ""
	}
	prefix := "c-"
	if c.spec {
		prefix = "s-"
	}
	d := strconv.FormatUint(c.n, 10)
	if len(d) < 6 {
		d = "000000"[len(d):] + d
	}
	return prefix + d
}

// sortRecords orders a window by global insertion order.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Ord < recs[j].Ord })
}

// ViewLimit bounds every captured state view: forensics wants the keys a
// check actually read, not a full deck dump per record.
const ViewLimit = 64

// argMatches reports whether any bracketed argument of k equals one of
// the (non-empty) ids, without the allocation Key.Args pays — this runs
// once per model key per captured view, the recorder's hottest loop.
func argMatches(k state.Key, ids []string) bool {
	for arg, rest, ok := nextArg(string(k)); ok; arg, rest, ok = nextArg(rest) {
		for _, id := range ids {
			if id == arg {
				return true
			}
		}
	}
	return false
}

// nextArg splits the first bracketed argument off a key's text.
func nextArg(s string) (arg, rest string, ok bool) {
	i := strings.IndexByte(s, '[')
	if i < 0 {
		return "", "", false
	}
	s = s[i+1:]
	j := strings.IndexByte(s, ']')
	if j < 0 {
		return "", "", false
	}
	return s[:j], s[j+1:], true
}

// fact is one captured state fact: a key and its value, or — present
// false — the key's deletion (expectation edits only).
type fact struct {
	k       state.Key
	v       state.Value
	present bool
}

// ViewIndex lists, for a snapshot's key set, the keys a captured view
// holds for each ID — every non-exogenous key with a bracketed argument
// equal to it — and the exogenous sensor keys every view holds. With an
// index, a view costs a lookup per listed key instead of a scan of the
// whole snapshot. Values may change freely; the owner keeps the index
// exact by calling Add and Remove as keys enter and leave the snapshot,
// under the lock that guards both.
type ViewIndex struct {
	byID map[string][]state.Key
	exo  []state.Key
	has  map[state.Key]bool
}

// NewViewIndex indexes a snapshot's keys.
func NewViewIndex(s state.Snapshot) *ViewIndex {
	ix := &ViewIndex{byID: make(map[string][]state.Key), has: make(map[state.Key]bool, len(s))}
	for k := range s {
		ix.Add(k)
	}
	return ix
}

// Add lists a key, unless it is listed already.
func (ix *ViewIndex) Add(k state.Key) {
	if ix.has[k] {
		return
	}
	ix.has[k] = true
	if k.IsExogenous() {
		ix.exo = append(ix.exo, k)
		return
	}
	for arg, rest, ok := nextArg(string(k)); ok; arg, rest, ok = nextArg(rest) {
		// A key naming the same ID twice is listed once.
		if keys := ix.byID[arg]; len(keys) == 0 || keys[len(keys)-1] != k {
			ix.byID[arg] = append(keys, k)
		}
	}
}

// Remove unlists a key, if it is listed.
func (ix *ViewIndex) Remove(k state.Key) {
	if !ix.has[k] {
		return
	}
	delete(ix.has, k)
	if k.IsExogenous() {
		ix.exo = without(ix.exo, k)
		return
	}
	for arg, rest, ok := nextArg(string(k)); ok; arg, rest, ok = nextArg(rest) {
		ix.byID[arg] = without(ix.byID[arg], k)
	}
}

// without deletes k from keys, in place.
func without(keys []state.Key, k state.Key) []state.Key {
	if i := slices.Index(keys, k); i >= 0 {
		return slices.Delete(keys, i, i+1)
	}
	return keys
}

// appendView appends to dst (reset to empty) the slice of a snapshot
// owned by the given IDs — plus exogenous sensor keys, which every path
// reads — bounded by ViewLimit. Without an index it scans s; with one
// (over a key set containing every key of s) it looks up the exogenous
// keys, then each ID's keys, skipping a key an earlier ID already
// contributed. The caller holds whatever lock makes s and ix stable.
func appendView(dst []fact, s state.Snapshot, ix *ViewIndex, ids []string) []fact {
	dst = dst[:0]
	// Drop the empty IDs once (scopes name optional command fields), so
	// the per-key loops compare only real ones.
	var buf [8]string
	live := buf[:0]
	for _, id := range ids {
		if id != "" {
			live = append(live, id)
		}
	}
	if ix == nil {
		for k, v := range s {
			if len(dst) >= ViewLimit {
				break
			}
			if argMatches(k, live) || k.IsExogenous() {
				dst = append(dst, fact{k: k, v: v, present: true})
			}
		}
		return dst
	}
	for _, k := range ix.exo {
		if len(dst) >= ViewLimit {
			return dst
		}
		if v, ok := s[k]; ok {
			dst = append(dst, fact{k: k, v: v, present: true})
		}
	}
	for n, id := range live {
		for _, k := range ix.byID[id] {
			if argMatches(k, live[:n]) {
				continue
			}
			if len(dst) >= ViewLimit {
				return dst
			}
			if v, ok := s[k]; ok {
				dst = append(dst, fact{k: k, v: v, present: true})
			}
		}
	}
	return dst
}

// appendEdits appends to dst (reset to empty) an expectation overlay's
// accumulated edits, bottom layer first, so a later edit of the same
// key renders over an earlier one. Nil-safe on o.
func appendEdits(dst []fact, o *state.Overlay) []fact {
	dst = dst[:0]
	if o == nil {
		return dst
	}
	o.RangeEdits(func(k state.Key, v state.Value, present bool) bool {
		if len(dst) >= ViewLimit {
			return false
		}
		dst = append(dst, fact{k: k, v: v, present: present})
		return true
	})
	return dst
}

// renderFacts materializes captured facts as the view's string map;
// deletes render as "∅". With no facts it returns m unchanged.
func renderFacts(m map[string]string, facts []fact) map[string]string {
	if len(facts) == 0 {
		return m
	}
	m = make(map[string]string, len(facts))
	for _, f := range facts {
		if f.present {
			m[string(f.k)] = f.v.String()
		} else {
			m[string(f.k)] = "∅"
		}
	}
	return m
}
