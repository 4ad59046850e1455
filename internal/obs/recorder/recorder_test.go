package recorder

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/action"
)

func cmd(device string, seq int) action.Command {
	return action.Command{Device: device, Action: action.ReadStatus, Seq: seq}
}

func TestCorrIDsAreUniqueAndPrefixed(t *testing.T) {
	r := New(Options{})
	a := r.Begin(cmd("hp00", 1), PathGlobal)
	b := r.Begin(cmd("hp00", 2), PathSharded)
	s := r.BeginSpec(a.Corr().String(), cmd("hp00", 3))
	if !strings.HasPrefix(a.Corr().String(), "c-") || !strings.HasPrefix(b.Corr().String(), "c-") {
		t.Fatalf("command corr IDs: %q, %q", a.Corr().String(), b.Corr().String())
	}
	if !strings.HasPrefix(s.Corr().String(), "s-") {
		t.Fatalf("speculation corr ID: %q", s.Corr().String())
	}
	if a.Corr().String() == b.Corr().String() || a.Corr().String() == s.Corr().String() {
		t.Fatalf("correlation IDs collide: %q %q %q", a.Corr().String(), b.Corr().String(), s.Corr().String())
	}
	if s.R.Parent != a.Corr().String() {
		t.Fatalf("spec parent = %q, want %q", s.R.Parent, a.Corr().String())
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	// Depth 8 over 8 shards = 1 slot per shard; one device maps to one
	// shard, so only its newest record survives.
	r := New(Options{Depth: 8})
	for seq := 1; seq <= 5; seq++ {
		a := r.Begin(cmd("hp00", seq), PathSharded)
		a.Commit()
	}
	w := r.Window()
	if len(w) != 1 {
		t.Fatalf("window = %d records, want 1 (ring wrapped)", len(w))
	}
	if w[0].Seq != 5 {
		t.Fatalf("surviving record seq = %d, want newest (5)", w[0].Seq)
	}
}

func TestWindowIsOrderedOldestFirst(t *testing.T) {
	r := New(Options{})
	// Distinct devices scatter across shards; Window must still come back
	// in global insertion order.
	devices := []string{"hp00", "hp01", "arm0", "arm1", "door", "hp02", "hp03", "hp04"}
	for i, d := range devices {
		r.Begin(cmd(d, i+1), PathSharded).Commit()
	}
	w := r.Window()
	if len(w) != len(devices) {
		t.Fatalf("window = %d records, want %d", len(w), len(devices))
	}
	for i := 1; i < len(w); i++ {
		if w[i].Ord <= w[i-1].Ord {
			t.Fatalf("window out of order at %d: %d then %d", i, w[i-1].Ord, w[i].Ord)
		}
	}
	for i, rec := range w {
		if rec.Seq != i+1 {
			t.Fatalf("window[%d].Seq = %d, want %d", i, rec.Seq, i+1)
		}
	}
}

func TestAnnotateBackfillsNewestMatch(t *testing.T) {
	r := New(Options{})
	r.Begin(cmd("hp00", 1), PathSharded).Commit()
	r.Begin(cmd("hp00", 2), PathSharded).Commit()
	r.Annotate("hp00", 2, "ok", 1234)
	r.Annotate("hp00", 99, "error", 1) // no such record: best-effort no-op
	for _, rec := range r.Window() {
		switch rec.Seq {
		case 1:
			if rec.Outcome != "" {
				t.Fatalf("seq 1 annotated unexpectedly: %q", rec.Outcome)
			}
		case 2:
			if rec.Outcome != "ok" || rec.Spans.ExecNS != 1234 {
				t.Fatalf("seq 2 = %q/%d, want ok/1234", rec.Outcome, rec.Spans.ExecNS)
			}
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.On() {
		t.Fatal("nil recorder is On")
	}
	if r.Depth() != 0 || r.Dir() != "" || r.Err() != nil || r.Window() != nil {
		t.Fatal("nil recorder accessors not zero")
	}
	if a := r.Begin(cmd("hp00", 1), PathGlobal); a != nil {
		t.Fatal("nil recorder Begin returned a handle")
	}
	if a := r.BeginSpec("", cmd("hp00", 1)); a != nil {
		t.Fatal("nil recorder BeginSpec returned a handle")
	}
	r.Annotate("hp00", 1, "ok", 0)
	var a *Active
	a.Commit()
	a.CommitIncident()
}

// TestBundleRoundTrip writes an incident with a full three-hop causal
// chain and loads it back.
func TestBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := New(Options{Dir: dir, Tag: "bug-x"})

	parent := r.Begin(cmd("arm0", 1), PathSharded)
	parent.Commit()
	spec := r.BeginSpec(parent.Corr().String(), cmd("arm0", 0))
	spec.R.Verdict = Verdict{Source: SourceSpeculative, EpochAtValidation: 3}
	spec.Commit()

	trigger := r.Begin(cmd("arm0", 2), PathSharded)
	trigger.R.TNS = 1000
	trigger.R.Rules = []string{"GR1", "GR4"}
	trigger.R.Pre = map[string]string{"arm0.pose": "home"}
	trigger.R.Verdict = Verdict{Source: SourceSpeculative, EpochAtValidation: 3, SpecCorr: spec.Corr().String()}
	trigger.R.AlertKind = "invalid_trajectory"
	trigger.R.Alert = "collision with hp00"
	trigger.R.AlertTNS = 5000
	trigger.CommitIncident()

	if err := r.Err(); err != nil {
		t.Fatalf("bundle write: %v", err)
	}
	incs, err := LoadIncidents(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(incs) != 1 {
		t.Fatalf("loaded %d incidents, want 1", len(incs))
	}
	in := incs[0]
	m := in.Manifest
	if m.Schema != ManifestSchema || m.Tag != "bug-x" {
		t.Fatalf("manifest schema/tag: %+v", m)
	}
	if !strings.HasPrefix(m.Bundle, "bug-x-incident-") || !strings.HasSuffix(m.Bundle, "-invalid_trajectory") {
		t.Fatalf("bundle name %q", m.Bundle)
	}
	if m.TNS != 5000 {
		t.Fatalf("manifest TNS = %d, want alert time 5000", m.TNS)
	}
	want := []string{trigger.Corr().String(), spec.Corr().String(), parent.Corr().String()}
	if len(m.Chain) != 3 || m.Chain[0] != want[0] || m.Chain[1] != want[1] || m.Chain[2] != want[2] {
		t.Fatalf("chain = %v, want %v", m.Chain, want)
	}
	for _, corr := range m.Chain {
		if _, ok := in.Record(corr); !ok {
			t.Fatalf("chain entry %s not resolvable in records.jsonl", corr)
		}
	}
	trig, ok := in.Trigger()
	if !ok {
		t.Fatal("trigger not in bundle")
	}
	if trig.Pre["arm0.pose"] != "home" || trig.Verdict.SpecCorr != spec.Corr().String() {
		t.Fatalf("trigger round-trip lost data: %+v", trig)
	}
	if len(m.RuleIDs) != 2 || m.RuleIDs[0] != "GR1" {
		t.Fatalf("manifest rule IDs = %v (fallback to evaluated rules)", m.RuleIDs)
	}
	if m.Records != len(in.Records) || m.Records < 3 {
		t.Fatalf("manifest records = %d, file has %d", m.Records, len(in.Records))
	}
}

// TestBundleNamesNeverCollide shares one incident directory between two
// recorders (as the bug study does across injections).
func TestBundleNamesNeverCollide(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		r := New(Options{Dir: dir})
		a := r.Begin(cmd("hp00", 1), PathGlobal)
		a.R.AlertKind = "invalid_command"
		a.CommitIncident()
		if err := r.Err(); err != nil {
			t.Fatalf("recorder %d: %v", i, err)
		}
	}
	incs, err := LoadIncidents(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 3 {
		t.Fatalf("loaded %d incidents, want 3", len(incs))
	}
}

func TestChainOmitsEvictedLinks(t *testing.T) {
	// The spec record never enters the ring, so the chain must stop at
	// the trigger rather than reference an unresolvable record.
	r := New(Options{Dir: t.TempDir()})
	trigger := r.Begin(cmd("arm0", 1), PathSharded)
	trigger.R.Verdict.SpecCorr = "s-000042" // fell off the ring
	trigger.R.AlertKind = "malfunction"
	trigger.CommitIncident()
	incs, err := LoadIncidents(r.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if chain := incs[0].Manifest.Chain; len(chain) != 1 || chain[0] != trigger.Corr().String() {
		t.Fatalf("chain = %v, want just the trigger", chain)
	}
}

func TestWriteErrorRetainedNotFatal(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(Options{Dir: filepath.Join(blocked, "sub")})
	a := r.Begin(cmd("hp00", 1), PathGlobal)
	a.R.AlertKind = "invalid_command"
	a.CommitIncident() // must not panic
	if r.Err() == nil {
		t.Fatal("write error not retained")
	}
	// The ring still recorded the trigger.
	if len(r.Window()) != 1 {
		t.Fatal("trigger missing from ring after failed bundle write")
	}
}
