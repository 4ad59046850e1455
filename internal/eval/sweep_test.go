package eval

import (
	"math"
	"testing"

	rabit "repro"
	"repro/internal/env"
	"repro/internal/rules"
	"repro/internal/workflow"
)

// TestSolubilityDoseSweep runs the Fig. 1(b) experiment across a sweep of
// solid doses on the production deck and checks that the robot-measured
// solvent requirement tracks the substrate's dissolution chemistry
// (2 mg/mL): the science survives the full interception stack.
func TestSolubilityDoseSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("parameter sweep")
	}
	for _, doseMg := range []float64{2, 4, 6, 8} {
		s, err := rabit.NewHeinProduction(rabit.Options{
			Stage:      env.StageProduction,
			Generation: rules.GenModified,
			Multiplex:  rules.MultiplexNone,
			Seed:       int64(10 + doseMg),
		})
		if err != nil {
			t.Fatal(err)
		}
		p := workflow.DefaultSolubilityParams()
		p.AmountMg = doseMg
		res, err := workflow.RunSolubility(s.Session, p)
		if err != nil {
			t.Fatalf("dose %.0f mg: %v", doseMg, err)
		}
		if !res.Dissolved {
			t.Errorf("dose %.0f mg did not dissolve (%.2f)", doseMg, res.FinalFraction)
		}
		// Solubility is 2 mg/mL and solvent is added in 1 mL steps, so
		// the workflow needs ⌈dose/2⌉ mL (within one step of noise).
		need := math.Ceil(doseMg / 2)
		if math.Abs(res.SolventML-need) > 1.01 {
			t.Errorf("dose %.0f mg used %.1f mL, want ≈%.0f", doseMg, res.SolventML, need)
		}
		if alerts := s.Engine.Alerts(); len(alerts) != 0 {
			t.Errorf("dose %.0f mg: false positives %v", doseMg, alerts)
		}
	}
}
