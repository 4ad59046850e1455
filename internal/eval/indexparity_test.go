package eval

import (
	"testing"

	rabit "repro"
	"repro/internal/bugs"
	"repro/internal/workflow"
)

// runBugWithBroadphase replays one injected bug under the fully equipped
// configuration (modified rules + Extended Simulator) with the
// simulator's broadphase — and therefore the deck spatial index — either
// on (the default indexed cold path) or off (the brute-force scan), and
// returns every alert text the run raised.
func runBugWithBroadphase(t *testing.T, b bugs.Bug, broadphase bool) []string {
	t.Helper()
	s, err := rabit.NewTestbed(ConfigModifiedSim.options(1))
	if err != nil {
		t.Fatalf("bug %d (%s): %v", b.ID, b.Slug, err)
	}
	defer s.Close()
	s.Simulator.SetBroadphase(broadphase)
	steps := b.Mutate(s.Session)
	_ = workflow.RunSteps(s.Session, steps) // the error is the alert/crash itself
	var out []string
	for _, a := range s.Engine.Alerts() {
		out = append(out, a.Error())
	}
	return out
}

// TestBugStudyIndexEquivalence replays all sixteen injected bugs of the
// Section IV study through the full stack twice — once on the indexed
// cold path, once on the brute-force sweep — and asserts every run
// raises exactly the same alerts, text for text. Together with the
// controlled-scenario equivalence test this pins the acceptance claim:
// the spatial index changes latency, never verdicts.
func TestBugStudyIndexEquivalence(t *testing.T) {
	for _, b := range bugs.Suite() {
		indexed := runBugWithBroadphase(t, b, true)
		brute := runBugWithBroadphase(t, b, false)
		if len(indexed) != len(brute) {
			t.Errorf("bug %d (%s): %d alerts indexed, %d brute", b.ID, b.Slug, len(indexed), len(brute))
			continue
		}
		for i := range indexed {
			if indexed[i] != brute[i] {
				t.Errorf("bug %d (%s) alert %d diverged:\n  indexed: %s\n  brute:   %s",
					b.ID, b.Slug, i, indexed[i], brute[i])
			}
		}
	}
}
