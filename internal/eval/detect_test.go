package eval

import (
	"testing"

	rabit "repro"
	"repro/internal/bugs"
	"repro/internal/env"
	"repro/internal/rules"
	"repro/internal/world"
)

// study caches the bug study across tests (it replays 16 bugs × 4 runs).
var cachedStudy *BugStudy

func bugStudy(t *testing.T) *BugStudy {
	t.Helper()
	if cachedStudy == nil {
		st, err := RunBugStudy(1)
		if err != nil {
			t.Fatal(err)
		}
		cachedStudy = st
	}
	return cachedStudy
}

// TestBugExpectationsEmerge asserts that every bug's emergent detection
// outcome matches the paper-aligned expectation declared in the suite.
func TestBugExpectationsEmerge(t *testing.T) {
	st := bugStudy(t)
	for _, o := range st.Outcomes {
		want := map[ConfigName]bool{
			ConfigInitial:     o.Bug.Expect.Initial,
			ConfigModified:    o.Bug.Expect.Modified,
			ConfigModifiedSim: o.Bug.Expect.WithSim,
		}
		for cfg, expect := range want {
			if got := o.Detected[cfg]; got != expect {
				t.Errorf("bug %d (%s) under %s: detected=%v, want %v (alert: %s)",
					o.Bug.ID, o.Bug.Slug, cfg, got, expect, o.AlertKinds[cfg])
			}
		}
	}
}

// TestDetectionProgression asserts the paper's Section IV summary:
// 8/16 initially (50%), 12/16 modified (75%), 13/16 with the Extended
// Simulator (81%).
func TestDetectionProgression(t *testing.T) {
	st := bugStudy(t)
	tests := []struct {
		cfg  ConfigName
		want int
	}{
		{ConfigInitial, 8},
		{ConfigModified, 12},
		{ConfigModifiedSim, 13},
	}
	for _, tt := range tests {
		if got := st.DetectedCount(tt.cfg); got != tt.want {
			var detail string
			for _, o := range st.Outcomes {
				if o.Detected[tt.cfg] != (o.Bug.Expect.Initial && tt.cfg == ConfigInitial ||
					o.Bug.Expect.Modified && tt.cfg == ConfigModified ||
					o.Bug.Expect.WithSim && tt.cfg == ConfigModifiedSim) {
					detail += " " + o.Bug.Slug
				}
			}
			t.Errorf("%s: detected %d/16, want %d/16 (divergent:%s)", tt.cfg, got, tt.want, detail)
		}
	}
	if r := st.DetectionRate(ConfigModifiedSim); r < 81 || r > 82 {
		t.Errorf("final detection rate %.1f%%, want ≈81%%", r)
	}
}

// TestTableV asserts the severity breakdown of Table V: Low 3/1,
// Medium-Low 1/1, Medium-High 6/4, High 6/6 under the modified
// configuration.
func TestTableV(t *testing.T) {
	st := bugStudy(t)
	want := map[world.Severity][2]int{
		world.SeverityLow:        {3, 1},
		world.SeverityMediumLow:  {1, 1},
		world.SeverityMediumHigh: {6, 4},
		world.SeverityHigh:       {6, 6},
	}
	rows := st.TableV()
	if len(rows) != 4 {
		t.Fatalf("Table V has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Severity]
		if !ok {
			t.Errorf("unexpected severity %v", r.Severity)
			continue
		}
		if r.Total != w[0] || r.Detected != w[1] {
			t.Errorf("%v: %d/%d, want %d/%d", r.Severity, r.Detected, r.Total, w[1], w[0])
		}
	}
}

// TestGroundTruthDamage asserts that the unprotected runs actually cause
// the physical consequences the bugs were classified by — the injected
// bugs are real hazards, not strawmen.
func TestGroundTruthDamage(t *testing.T) {
	st := bugStudy(t)
	// Bugs whose unprotected run must record at least one damage event of
	// the declared (or worse) severity.
	damaging := map[int]world.Severity{
		1:  world.SeverityHigh,       // door smash
		2:  world.SeverityHigh,       // door closed on arm
		3:  world.SeverityLow,        // dust escape
		4:  world.SeverityLow,        // opened mid-run
		5:  world.SeverityHigh,       // overheat
		6:  world.SeverityHigh,       // rotor destroyed
		7:  world.SeverityMediumHigh, // arm-arm collision
		8:  world.SeverityMediumHigh, // concurrent collision
		9:  world.SeverityMediumHigh, // platform strike
		10: world.SeverityMediumHigh, // skipped waypoint → device strike
		11: world.SeverityMediumHigh, // held vial clips hotplate
		12: world.SeverityMediumHigh, // finger blade into grid
		13: world.SeverityMediumLow,  // vial shatters
		14: world.SeverityLow,        // solid dosed into thin air
		15: world.SeverityLow,        // solid dosed into thin air
	}
	for id, minSev := range damaging {
		o, ok := st.Outcome(id)
		if !ok {
			t.Fatalf("bug %d missing from study", id)
		}
		var worst world.Severity
		for _, ev := range o.GroundTruthDamage {
			if ev.Severity > worst {
				worst = ev.Severity
			}
		}
		if worst < minSev {
			t.Errorf("bug %d (%s): unprotected run recorded max severity %v, want ≥ %v (events: %v)",
				id, o.Bug.Slug, worst, minSev, o.GroundTruthDamage)
		}
	}
	// Bug 16's hazard is chemical (a ruined batch), not mechanical: the
	// solvent reaches the solid-less vial.
	o16, _ := st.Outcome(16)
	if len(o16.GroundTruthDamage) != 0 {
		t.Errorf("bug 16 should cause no mechanical damage, got %v", o16.GroundTruthDamage)
	}
}

// TestSuiteShape sanity-checks the suite composition against DESIGN.md.
func TestSuiteShape(t *testing.T) {
	suite := bugs.Suite()
	if len(suite) != 16 {
		t.Fatalf("suite has %d bugs, want 16", len(suite))
	}
	seen := map[int]bool{}
	for _, b := range suite {
		if b.ID < 1 || b.ID > 16 || seen[b.ID] {
			t.Errorf("bad or duplicate bug ID %d", b.ID)
		}
		seen[b.ID] = true
		if b.Slug == "" || b.Description == "" {
			t.Errorf("bug %d lacks metadata", b.ID)
		}
		if b.Severity < world.SeverityLow || b.Severity > world.SeverityHigh {
			t.Errorf("bug %d has invalid severity", b.ID)
		}
	}
	if _, ok := bugs.ByID(7); !ok {
		t.Error("ByID failed")
	}
	if _, ok := bugs.ByID(99); ok {
		t.Error("ByID found a ghost")
	}
}

// TestSpaceMultiplexingAlsoCatchesTwoArmBugs replays the two-arm bugs
// under the modified RABIT with the *space* policy (the paper's second
// workaround: a software-defined wall between the arms): both are caught
// before any motion, while arms may still move concurrently inside their
// own zones.
func TestSpaceMultiplexingAlsoCatchesTwoArmBugs(t *testing.T) {
	opts := rabit.Options{
		Stage:      env.StageTestbed,
		Generation: rules.GenModified,
		Multiplex:  rules.MultiplexSpace,
		Seed:       1,
	}
	for _, id := range []int{7, 8} {
		b, _ := bugs.ByID(id)
		detected, kind, err := runBugOnce(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !detected {
			t.Errorf("bug %d (%s) undetected under space multiplexing", id, b.Slug)
		}
		if kind != "Invalid Command!" {
			t.Errorf("bug %d: alert kind %q", id, kind)
		}
	}
}

// TestDetectionStableAcrossSeeds re-runs the full bug study under five
// different noise seeds: the detection matrix must be identical every
// time — the reproduced results do not hinge on lucky noise draws.
func TestDetectionStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("5 full bug-study runs")
	}
	for seed := int64(2); seed <= 6; seed++ {
		st, err := RunBugStudy(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := st.DetectedCount(ConfigInitial); got != 8 {
			t.Errorf("seed %d: initial %d/16", seed, got)
		}
		if got := st.DetectedCount(ConfigModified); got != 12 {
			t.Errorf("seed %d: modified %d/16", seed, got)
		}
		if got := st.DetectedCount(ConfigModifiedSim); got != 13 {
			t.Errorf("seed %d: +sim %d/16", seed, got)
		}
		for _, o := range st.Outcomes {
			if o.Detected[ConfigInitial] != o.Bug.Expect.Initial ||
				o.Detected[ConfigModified] != o.Bug.Expect.Modified ||
				o.Detected[ConfigModifiedSim] != o.Bug.Expect.WithSim {
				t.Errorf("seed %d: bug %d (%s) detection drifted", seed, o.Bug.ID, o.Bug.Slug)
			}
		}
	}
}
