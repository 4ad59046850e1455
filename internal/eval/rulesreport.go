package eval

import (
	"fmt"
	"sort"
	"time"

	rabit "repro"
	"repro/internal/bugs"
	"repro/internal/obs"
	"repro/internal/workflow"
)

// The per-rule safety report (ISSUE 10): every engine run records
// labeled rule metrics (evals, fires, eval latency, near-miss margin);
// this file drives a representative workload — the sixteen-bug study
// plus one clean fig5 run under the modified configuration — and merges
// the per-run registry snapshots into one ranked table. Rules are
// ranked by fire rate: the rules that actually catch bugs float to the
// top, dead rules (evaluated but never firing, wide margins) sink to
// the bottom, and a rule that is both hot and slow stands out in the
// latency column.

// RuleStats is one rule's merged metric series across every run of the
// report workload.
type RuleStats struct {
	RuleID string `json:"rule_id"`
	// Evals counts every time the engine consulted the rule (including
	// AppliesTo rejections); Fires counts violations.
	Evals int64 `json:"evals"`
	Fires int64 `json:"fires"`
	// FireRate is Fires/Evals.
	FireRate float64 `json:"fire_rate"`
	// LatMeanNS and LatMaxNS summarize the rule's eval latency. Means
	// merge exactly across runs (sum/count); percentiles do not, so the
	// report sticks to moments.
	LatMeanNS int64 `json:"lat_mean_ns"`
	LatMaxNS  int64 `json:"lat_max_ns"`
	// MarginN and MarginMean summarize the rule's near-miss margin on
	// non-firing evals (0 = at the threshold, 1 = maximally clear).
	// Only rules with a Margin estimator report them.
	MarginN    int64   `json:"margin_n"`
	MarginMean float64 `json:"margin_mean"`

	latSum    int64
	marginSum float64
}

// mergeRuleFamilies folds one registry snapshot's rule families into
// the accumulator keyed by rule ID.
func mergeRuleFamilies(acc map[string]*RuleStats, snap obs.Snapshot) {
	get := func(id string) *RuleStats {
		rs, ok := acc[id]
		if !ok {
			rs = &RuleStats{RuleID: id}
			acc[id] = rs
		}
		return rs
	}
	for _, fam := range snap.Families {
		switch fam.Name {
		case obs.FamilyRuleEvals:
			for _, c := range fam.Counters {
				get(c.Name).Evals += c.Value
			}
		case obs.FamilyRuleFires:
			for _, c := range fam.Counters {
				get(c.Name).Fires += c.Value
			}
		case obs.FamilyRuleEval:
			for _, h := range fam.Histograms {
				rs := get(h.Name)
				rs.latSum += h.SumNS
				rs.LatMaxNS = max(rs.LatMaxNS, h.MaxNS)
			}
		case obs.FamilyRuleMargin:
			for _, h := range fam.Histograms {
				rs := get(h.Name)
				rs.MarginN += h.Count
				// Margins are recorded on the ratio convention: value×1e9
				// nanoseconds per unit of margin.
				rs.marginSum += float64(h.SumNS) / 1e9
			}
		}
	}
}

// RulesReport runs the report workload and returns the merged per-rule
// stats ranked by fire rate (ties: eval count, then rule ID).
func RulesReport(seed int64) ([]RuleStats, error) {
	acc := make(map[string]*RuleStats)
	collect := func(run func(s *rabit.System)) error {
		s, err := rabit.NewTestbed(ConfigModified.options(seed))
		if err != nil {
			return err
		}
		defer s.Close()
		run(s)
		mergeRuleFamilies(acc, s.Obs.Snapshot())
		return nil
	}
	// One clean run: every rule evaluated, nothing firing — the margin
	// and latency baseline.
	if err := collect(func(s *rabit.System) {
		_ = workflow.RunSteps(s.Session, workflow.Fig5Workflow())
	}); err != nil {
		return nil, fmt.Errorf("eval: rules report: clean run: %w", err)
	}
	// The sixteen injected bugs: the fire-rate signal.
	for _, b := range bugs.Suite() {
		if err := collect(func(s *rabit.System) {
			_ = workflow.RunSteps(s.Session, b.Mutate(s.Session)) // the error is the alert itself
		}); err != nil {
			return nil, fmt.Errorf("eval: rules report: bug %d: %w", b.ID, err)
		}
	}

	rows := make([]RuleStats, 0, len(acc))
	for _, rs := range acc {
		if rs.Evals > 0 {
			rs.FireRate = float64(rs.Fires) / float64(rs.Evals)
			rs.LatMeanNS = rs.latSum / rs.Evals
		}
		if rs.MarginN > 0 {
			rs.MarginMean = rs.marginSum / float64(rs.MarginN)
		}
		rows = append(rows, *rs)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.FireRate != b.FireRate {
			return a.FireRate > b.FireRate
		}
		if a.Evals != b.Evals {
			return a.Evals > b.Evals
		}
		return a.RuleID < b.RuleID
	})
	return rows, nil
}

// RenderRuleReport prints the ranked table.
func RenderRuleReport(rows []RuleStats) string {
	out := fmt.Sprintf("%-24s %8s %6s %9s %12s %12s %9s %11s\n",
		"rule", "evals", "fires", "fire rate", "lat mean", "lat max", "margins", "mean margin")
	for _, r := range rows {
		margin := "—"
		if r.MarginN > 0 {
			margin = fmt.Sprintf("%.3f", r.MarginMean)
		}
		out += fmt.Sprintf("%-24s %8d %6d %8.2f%% %12s %12s %9d %11s\n",
			r.RuleID, r.Evals, r.Fires, 100*r.FireRate,
			time.Duration(r.LatMeanNS), time.Duration(r.LatMaxNS), r.MarginN, margin)
	}
	return out
}
