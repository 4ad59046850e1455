package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/recorder"
)

// IncidentSummary reduces one loaded bundle to the facts the forensic
// aggregation works over.
type IncidentSummary struct {
	Bundle    string
	Tag       string
	AlertKind string
	Device    string
	RuleIDs   []string
	// Provenance is the trigger's trajectory-verdict source ("" when the
	// alert fired before or without a trajectory check).
	Provenance string
	// DetectionLatency is lab-clock time from the triggering command's
	// issue to the alert (zero when either stamp is missing).
	DetectionLatency time.Duration
	// ChainLen is the resolved causal-chain length (1 = no speculation
	// involved; 3 = trigger → speculation → hinting command).
	ChainLen int
	Records  int
}

// IncidentReport aggregates a directory of incident bundles — the
// cross-bug view of the Table V injections' forensics.
type IncidentReport struct {
	Incidents []IncidentSummary
	// ByKind counts bundles per alert kind; ByTag per run tag (the bug
	// study tags bundles with bug slugs, so ByTag is bundles per bug).
	ByKind map[string]int
	ByTag  map[string]int
	// Detection-latency stats over the bundles that carry both stamps.
	LatencyCount                          int
	MinLatency, MedianLatency, MaxLatency time.Duration
	// SpeculationServed counts triggers whose verdict was served from a
	// speculative pre-validation.
	SpeculationServed int
}

// BuildIncidentReport aggregates already-loaded bundles.
func BuildIncidentReport(incs []*recorder.Incident) *IncidentReport {
	rep := &IncidentReport{
		ByKind: make(map[string]int),
		ByTag:  make(map[string]int),
	}
	var lats []time.Duration
	for _, in := range incs {
		sum := IncidentSummary{
			Bundle:    in.Manifest.Bundle,
			Tag:       in.Manifest.Tag,
			AlertKind: in.Manifest.AlertKind,
			Device:    in.Manifest.Device,
			RuleIDs:   in.Manifest.RuleIDs,
			ChainLen:  len(in.Manifest.Chain),
			Records:   in.Manifest.Records,
		}
		if trig, ok := in.Trigger(); ok {
			sum.Provenance = trig.Verdict.Source
			if trig.AlertTNS > 0 && trig.TNS > 0 && trig.AlertTNS >= trig.TNS {
				sum.DetectionLatency = time.Duration(trig.AlertTNS - trig.TNS)
				lats = append(lats, sum.DetectionLatency)
			}
			if trig.Verdict.Source == recorder.SourceSpeculative {
				rep.SpeculationServed++
			}
		}
		rep.ByKind[sum.AlertKind]++
		if sum.Tag != "" {
			rep.ByTag[sum.Tag]++
		}
		rep.Incidents = append(rep.Incidents, sum)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.LatencyCount = len(lats)
		rep.MinLatency = lats[0]
		rep.MedianLatency = lats[len(lats)/2]
		rep.MaxLatency = lats[len(lats)-1]
	}
	return rep
}

// RenderIncidentTimeline reconstructs one bundle's human-readable causal
// timeline: the manifest's headline facts, the causal chain rendered
// oldest-first, and the trigger's captured state views.
func RenderIncidentTimeline(in *recorder.Incident) string {
	var b strings.Builder
	m := in.Manifest
	fmt.Fprintf(&b, "incident %s\n", m.Bundle)
	if m.Tag != "" {
		fmt.Fprintf(&b, "  tag:    %s\n", m.Tag)
	}
	fmt.Fprintf(&b, "  alert:  %s — %s\n", m.AlertKind, m.Alert)
	fmt.Fprintf(&b, "  device: %s (seq %d)  t=%s\n", m.Device, m.Seq, time.Duration(m.TNS))
	if len(m.RuleIDs) > 0 {
		fmt.Fprintf(&b, "  rules:  %s\n", strings.Join(m.RuleIDs, ", "))
	}

	// The chain is stored trigger-first; a timeline reads cause-first.
	chain := make([]recorder.Record, 0, len(m.Chain))
	for i := len(m.Chain) - 1; i >= 0; i-- {
		if rec, ok := in.Record(m.Chain[i]); ok {
			chain = append(chain, rec)
		}
	}
	fmt.Fprintf(&b, "  causal chain (%d records of %d in window):\n", len(chain), m.Records)
	for i, rec := range chain {
		fmt.Fprintf(&b, "    [%d] %s\n", i+1, renderChainRecord(rec))
	}

	if trig, ok := in.Trigger(); ok {
		renderViews(&b, trig)
	}
	return b.String()
}

// renderChainRecord renders one chain entry as a single timeline line.
func renderChainRecord(rec recorder.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", rec.Corr, rec.Kind)
	if rec.Cmd != "" {
		fmt.Fprintf(&b, " %s", rec.Cmd)
	}
	fmt.Fprintf(&b, " path=%s", rec.Path)
	if rec.Parent != "" {
		fmt.Fprintf(&b, " parent=%s", rec.Parent)
	}
	if rec.Verdict.Source != "" {
		fmt.Fprintf(&b, " verdict=%s", rec.Verdict.Source)
		if rec.Verdict.SpecCorr != "" {
			fmt.Fprintf(&b, " via=%s", rec.Verdict.SpecCorr)
		}
		fmt.Fprintf(&b, " epoch=%d", rec.Verdict.EpochAtValidation)
		if rec.Verdict.EpochAtCommit != 0 {
			fmt.Fprintf(&b, "→%d", rec.Verdict.EpochAtCommit)
		}
	}
	if s := renderSpans(rec.Spans); s != "" {
		fmt.Fprintf(&b, " [%s]", s)
	}
	if rec.Outcome != "" {
		fmt.Fprintf(&b, " outcome=%s", rec.Outcome)
	}
	if rec.AlertKind != "" {
		fmt.Fprintf(&b, " ⇒ ALERT %s", rec.AlertKind)
	}
	return b.String()
}

// renderSpans renders the non-zero stage timings.
func renderSpans(s recorder.Spans) string {
	var parts []string
	add := func(name string, ns int64) {
		if ns > 0 {
			parts = append(parts, fmt.Sprintf("%s=%s", name, time.Duration(ns).Round(time.Microsecond)))
		}
	}
	add("validate", s.ValidateNS)
	add("trajectory", s.TrajectoryNS)
	add("exec", s.ExecNS)
	add("fetch", s.FetchNS)
	add("compare", s.CompareNS)
	return strings.Join(parts, " ")
}

// renderViews renders the trigger's captured state views.
func renderViews(b *strings.Builder, trig recorder.Record) {
	view := func(label string, m map[string]string) {
		if len(m) == 0 {
			return
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(b, "  %s:\n", label)
		for _, k := range keys {
			fmt.Fprintf(b, "    %s = %s\n", k, m[k])
		}
	}
	view("pre-state", trig.Pre)
	view("expected", trig.Expected)
	view("observed", trig.Observed)
	if len(trig.Mismatches) > 0 {
		fmt.Fprintf(b, "  mismatched keys: %s\n", strings.Join(trig.Mismatches, ", "))
	}
}

// RenderIncidentReport renders the aggregate view.
func RenderIncidentReport(rep *IncidentReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "incidents: %d\n", len(rep.Incidents))
	if len(rep.Incidents) == 0 {
		return b.String()
	}
	kinds := make([]string, 0, len(rep.ByKind))
	for k := range rep.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-20s %d\n", k, rep.ByKind[k])
	}
	if rep.LatencyCount > 0 {
		fmt.Fprintf(&b, "detection latency (%d stamped): min=%s median=%s max=%s\n",
			rep.LatencyCount, rep.MinLatency, rep.MedianLatency, rep.MaxLatency)
	}
	if rep.SpeculationServed > 0 {
		fmt.Fprintf(&b, "triggers served by speculative pre-validation: %d\n", rep.SpeculationServed)
	}
	if len(rep.ByTag) > 0 {
		tags := make([]string, 0, len(rep.ByTag))
		for t := range rep.ByTag {
			tags = append(tags, t)
		}
		sort.Strings(tags)
		fmt.Fprintf(&b, "bundles per tag:\n")
		for _, t := range tags {
			fmt.Fprintf(&b, "  %-28s %d\n", t, rep.ByTag[t])
		}
	}
	return b.String()
}
