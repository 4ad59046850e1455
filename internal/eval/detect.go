package eval

import (
	"fmt"
	"os"
	"sort"

	rabit "repro"
	"repro/internal/bugs"
	"repro/internal/env"
	otrace "repro/internal/obs/trace"
	"repro/internal/workflow"
	"repro/internal/world"
)

// ConfigName identifies one of the three engine configurations the
// paper's narrative steps through.
type ConfigName string

// The three configurations of Section IV's summary.
const (
	ConfigInitial     ConfigName = "initial"
	ConfigModified    ConfigName = "modified"
	ConfigModifiedSim ConfigName = "modified+sim"
)

// StudyConfigs returns the three configurations in narrative order.
func StudyConfigs() []ConfigName {
	return []ConfigName{ConfigInitial, ConfigModified, ConfigModifiedSim}
}

// options maps a configuration name to facade options.
func (c ConfigName) options(seed int64) rabit.Options {
	switch c {
	case ConfigInitial:
		return rabit.Options{
			Stage:      env.StageTestbed,
			Generation: rabit.GenInitial,
			Multiplex:  rabit.MultiplexNone,
			Seed:       seed,
		}
	case ConfigModified:
		return rabit.Options{
			Stage:      env.StageTestbed,
			Generation: rabit.GenModified,
			Multiplex:  rabit.MultiplexTime,
			Seed:       seed,
		}
	case ConfigModifiedSim:
		return rabit.Options{
			Stage:             env.StageTestbed,
			Generation:        rabit.GenModified,
			Multiplex:         rabit.MultiplexTime,
			ExtendedSimulator: true,
			Seed:              seed,
		}
	default:
		return rabit.Options{Unprotected: true}
	}
}

// BugOutcome records what actually happened when one bug ran under every
// configuration, plus the unprotected ground truth.
type BugOutcome struct {
	Bug bugs.Bug
	// Detected reports whether RABIT raised any alert, per configuration.
	Detected map[ConfigName]bool
	// AlertKinds records the first alert's kind per configuration ("" if
	// none).
	AlertKinds map[ConfigName]string
	// GroundTruthDamage is the damage log of the unprotected run.
	GroundTruthDamage []world.Event
	// GroundTruthCost is the unscaled damage cost of the unprotected run.
	GroundTruthCost float64
}

// BugStudy is the full Section IV study.
type BugStudy struct {
	Outcomes []BugOutcome
}

// RunBugStudy replays all sixteen bugs under the three configurations and
// once unprotected.
func RunBugStudy(seed int64) (*BugStudy, error) {
	return RunBugStudyWithIncidents(seed, "")
}

// RunBugStudyWithIncidents is RunBugStudy with forensics: when
// incidentDir is non-empty, the fully equipped configuration
// (modified+sim) runs with the flight recorder writing incident bundles
// there, one per detected bug, tagged with the bug's slug. The other
// configurations run untagged so each detection maps to exactly one
// bundle.
func RunBugStudyWithIncidents(seed int64, incidentDir string) (*BugStudy, error) {
	return RunBugStudyForensics(seed, incidentDir, "")
}

// RunBugStudyForensics is the fully instrumented study: incident bundles
// as in RunBugStudyWithIncidents, plus — when traceFile is non-empty —
// every causal trace the fully equipped configuration's tail sampler
// retains appended to traceFile as OTLP-JSON lines. Detected bugs always
// retain their trace (the alert pins it), so each incident bundle's
// manifest trace ID resolves in the file; `rabiteval -trace` renders it.
func RunBugStudyForensics(seed int64, incidentDir, traceFile string) (*BugStudy, error) {
	var exporter *otrace.FileExporter
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, fmt.Errorf("eval: trace file: %w", err)
		}
		exporter = otrace.NewFileExporter(f)
		defer exporter.Close()
	}
	study := &BugStudy{}
	for _, b := range bugs.Suite() {
		out := BugOutcome{
			Bug:        b,
			Detected:   make(map[ConfigName]bool, 3),
			AlertKinds: make(map[ConfigName]string, 3),
		}
		for _, cfg := range StudyConfigs() {
			o := cfg.options(seed)
			if cfg == ConfigModifiedSim {
				if incidentDir != "" {
					o.IncidentDir = incidentDir
					o.IncidentTag = b.Slug
				}
				if exporter != nil {
					o.TraceExporter = exporter
				}
			}
			detected, kind, err := runBugOnce(b, o)
			if err != nil {
				return nil, fmt.Errorf("eval: bug %d (%s) under %s: %w", b.ID, b.Slug, cfg, err)
			}
			out.Detected[cfg] = detected
			out.AlertKinds[cfg] = kind
		}
		// Unprotected ground truth.
		s, err := rabit.NewTestbed(rabit.Options{Stage: env.StageTestbed, Unprotected: true, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("eval: bug %d baseline: %w", b.ID, err)
		}
		steps := b.Mutate(s.Session)
		_ = workflow.RunSteps(s.Session, steps) // failures ARE the ground truth
		out.GroundTruthDamage = s.Env.World().Events()
		out.GroundTruthCost = s.Env.World().DamageCost()
		s.Close()
		study.Outcomes = append(study.Outcomes, out)
	}
	if exporter != nil {
		if err := exporter.Close(); err != nil {
			return nil, fmt.Errorf("eval: trace file: %w", err)
		}
	}
	return study, nil
}

// runBugOnce replays one bug under one configuration; detected is whether
// the engine raised any alert.
func runBugOnce(b bugs.Bug, o rabit.Options) (bool, string, error) {
	s, err := rabit.NewTestbed(o)
	if err != nil {
		return false, "", err
	}
	// Close drains the run, which settles the trace's tail-sampling
	// decision and exports it to any injected exporter.
	defer s.Close()
	steps := b.Mutate(s.Session)
	_ = workflow.RunSteps(s.Session, steps) // the error is the alert/crash itself
	alerts := s.Engine.Alerts()
	if len(alerts) == 0 {
		return false, "", nil
	}
	return true, alerts[0].Kind.String(), nil
}

// DetectedCount returns how many bugs a configuration detected.
func (st *BugStudy) DetectedCount(cfg ConfigName) int {
	n := 0
	for _, o := range st.Outcomes {
		if o.Detected[cfg] {
			n++
		}
	}
	return n
}

// DetectionRate returns the detection percentage for a configuration.
func (st *BugStudy) DetectionRate(cfg ConfigName) float64 {
	if len(st.Outcomes) == 0 {
		return 0
	}
	return 100 * float64(st.DetectedCount(cfg)) / float64(len(st.Outcomes))
}

// TableVRow is one row of Table V.
type TableVRow struct {
	Severity world.Severity
	Total    int
	Detected int // under the modified configuration, as in the paper
}

// TableV aggregates the study into the paper's Table V.
func (st *BugStudy) TableV() []TableVRow {
	bySev := map[world.Severity]*TableVRow{}
	for _, o := range st.Outcomes {
		r, ok := bySev[o.Bug.Severity]
		if !ok {
			r = &TableVRow{Severity: o.Bug.Severity}
			bySev[o.Bug.Severity] = r
		}
		r.Total++
		if o.Detected[ConfigModified] {
			r.Detected++
		}
	}
	rows := make([]TableVRow, 0, len(bySev))
	for _, r := range bySev {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Severity < rows[j].Severity })
	return rows
}

// Outcome finds a bug's outcome by ID.
func (st *BugStudy) Outcome(id int) (BugOutcome, bool) {
	for _, o := range st.Outcomes {
		if o.Bug.ID == id {
			return o, true
		}
	}
	return BugOutcome{}, false
}
