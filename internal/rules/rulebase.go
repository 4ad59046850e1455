package rules

import (
	"fmt"
	"sort"

	"repro/internal/action"
	"repro/internal/state"
)

// Rulebase is the complete set of rules the engine validates commands
// against. At construction it precompiles an index from action label to
// the ordered list of rules that can fire for that label, so Validate
// evaluates only the applicable slice of the table instead of scanning
// every rule per command.
type Rulebase struct {
	rules []*Rule
	lab   LabModel
	cfg   Config

	// byID resolves rules in O(1); duplicate IDs are a construction
	// error, not a silent shadowing.
	byID map[string]*Rule
	// byLabel maps an action label to the rules that can fire for it —
	// rules declaring the label plus every catch-all rule, interleaved
	// at their sorted (Scope, Number) positions so violation order is
	// identical to a full scan.
	byLabel map[action.Label][]*Rule
	// catchAll lists the rules with no Labels declaration; they guard
	// commands whose label no rule declares.
	catchAll []*Rule
	// globalReads marks labels whose bucket contains at least one rule
	// reading beyond the command's own devices (ReadsGlobal); commands
	// with such labels must be validated under the engine's global lock.
	globalReads map[action.Label]bool
}

// NewRulebase assembles a rulebase: the general rules always, plus any
// custom rules, plus the multiplexing preconditions when the modified
// generation is configured. It returns an error if two rules share an ID.
func NewRulebase(lab LabModel, cfg Config, custom ...*Rule) (*Rulebase, error) {
	rb := &Rulebase{lab: lab, cfg: cfg}
	rb.rules = append(rb.rules, GeneralRules()...)
	rb.rules = append(rb.rules, custom...)
	if cfg.Generation >= GenModified {
		rb.rules = append(rb.rules, MultiplexRules(cfg.Multiplex)...)
	}
	sort.SliceStable(rb.rules, func(i, j int) bool {
		if rb.rules[i].Scope != rb.rules[j].Scope {
			return rb.rules[i].Scope < rb.rules[j].Scope
		}
		return rb.rules[i].Number < rb.rules[j].Number
	})
	rb.byID = make(map[string]*Rule, len(rb.rules))
	for i, r := range rb.rules {
		r.index = i
		if r.ID == "" {
			return nil, fmt.Errorf("rules: rule %q (%s #%d) has no ID", r.Description, r.Scope, r.Number)
		}
		if prev, dup := rb.byID[r.ID]; dup {
			return nil, fmt.Errorf("rules: duplicate rule ID %q (%s #%d and %s #%d)",
				r.ID, prev.Scope, prev.Number, r.Scope, r.Number)
		}
		rb.byID[r.ID] = r
		if len(r.Devices) > 0 {
			r.deviceSet = make(map[string]bool, len(r.Devices))
			for _, d := range r.Devices {
				r.deviceSet[d] = true
			}
		}
	}
	rb.buildIndex()
	return rb, nil
}

// MustNewRulebase is NewRulebase for statically known rule sets whose IDs
// cannot collide (tests, benchmarks, the built-in labs).
func MustNewRulebase(lab LabModel, cfg Config, custom ...*Rule) *Rulebase {
	rb, err := NewRulebase(lab, cfg, custom...)
	if err != nil {
		panic(err)
	}
	return rb
}

// buildIndex precompiles the per-label rule lists and the per-label
// global-read flags.
func (rb *Rulebase) buildIndex() {
	labels := map[action.Label]bool{}
	for _, r := range rb.rules {
		for _, l := range r.Labels {
			labels[l] = true
		}
		if r.Labels == nil {
			rb.catchAll = append(rb.catchAll, r)
		}
	}
	rb.byLabel = make(map[action.Label][]*Rule, len(labels))
	rb.globalReads = make(map[action.Label]bool, len(labels))
	for l := range labels {
		var bucket []*Rule
		global := false
		// One pass over the sorted rule list keeps bucket order — and
		// therefore violation order — identical to a full scan.
		for _, r := range rb.rules {
			if !r.declares(l) {
				continue
			}
			bucket = append(bucket, r)
			if r.Reads == ReadsGlobal {
				global = true
			}
		}
		rb.byLabel[l] = bucket
		rb.globalReads[l] = global
	}
}

// declares reports whether the rule belongs in the label's bucket: it
// declares the label, or it is a catch-all.
func (r *Rule) declares(l action.Label) bool {
	if r.Labels == nil {
		return true
	}
	for _, own := range r.Labels {
		if own == l {
			return true
		}
	}
	return false
}

// Config returns the engine configuration the rulebase was built with.
func (rb *Rulebase) Config() Config { return rb.cfg }

// Lab returns the lab model.
func (rb *Rulebase) Lab() LabModel { return rb.lab }

// Rules returns the rules, ordered by scope and number.
func (rb *Rulebase) Rules() []*Rule {
	out := make([]*Rule, len(rb.rules))
	copy(out, rb.rules)
	return out
}

// RuleByID finds a rule.
func (rb *Rulebase) RuleByID(id string) (*Rule, bool) {
	r, ok := rb.byID[id]
	return r, ok
}

// RulesFor returns the precompiled, ordered rule list that can fire for
// an action label: the label's declared rules plus the catch-alls (only
// the catch-alls when no rule declares the label). The slice is shared;
// callers must not mutate it.
func (rb *Rulebase) RulesFor(label action.Label) []*Rule {
	if bucket, ok := rb.byLabel[label]; ok {
		return bucket
	}
	return rb.catchAll
}

// LabelReadsGlobal reports whether validating a command with this label
// may read state of devices the command does not name — the signal the
// engine uses to route such commands through its global section instead
// of a per-device shard.
func (rb *Rulebase) LabelReadsGlobal(label action.Label) bool {
	if g, ok := rb.globalReads[label]; ok {
		return g
	}
	// Labels nothing indexes still run the catch-alls, whose reads are
	// unknown; stay conservative if any exist.
	for _, r := range rb.catchAll {
		if r.Reads == ReadsGlobal {
			return true
		}
	}
	return false
}

// Validate implements Valid(S_current, a_next) from Fig. 2, line 6: it
// evaluates every applicable rule and returns all violations (empty when
// the command is safe). Only the indexed bucket for the command's label
// is evaluated; AppliesTo still runs per rule, so the index is purely a
// pruning layer and verdicts match a full table scan exactly.
func (rb *Rulebase) Validate(s state.View, cmd action.Command) []Violation {
	return rb.ValidateObserved(s, cmd, nil, "")
}

// AppendAppliedRuleIDs appends to out the IDs of the rules Validate
// evaluates for a command — its label's indexed bucket filtered to
// matching devices. The flight recorder stamps them into each command's
// record as the provenance of its validation, reusing one buffer.
func (rb *Rulebase) AppendAppliedRuleIDs(out []string, cmd action.Command) []string {
	rs := rb.RulesFor(cmd.Action)
	for _, r := range rs {
		if r.matchesDevice(cmd) {
			out = append(out, r.ID)
		}
	}
	return out
}

// Expected implements UpdateState(S_current, a_next) from Fig. 2,
// line 11.
func (rb *Rulebase) Expected(s state.Snapshot, cmd action.Command) state.Snapshot {
	return Apply(s, cmd, rb.lab)
}

// ExpectedOverlay computes S_expected as a copy-on-write layer over base
// — the allocation-free-ish hot-path form of Expected.
func (rb *Rulebase) ExpectedOverlay(base state.View, cmd action.Command) *state.Overlay {
	return ApplyOverlay(base, cmd, rb.lab)
}
