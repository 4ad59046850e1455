package recorder

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
)

// ManifestSchema versions the bundle layout.
const ManifestSchema = 1

// Manifest is an incident bundle's index: what fired, when, and the
// causal chain through the bundled records.
type Manifest struct {
	Schema int    `json:"schema"`
	Bundle string `json:"bundle"`
	Tag    string `json:"tag,omitempty"`
	// Corr is the triggering record's correlation ID.
	Corr string `json:"corr"`
	// Chain is the resolved causal chain, trigger first: the trigger,
	// then the speculation whose cached verdict it consumed (if any),
	// then the command that issued that speculation (if any). Every entry
	// resolves to a record in records.jsonl.
	Chain     []string `json:"chain"`
	AlertKind string   `json:"alert_kind"`
	Alert     string   `json:"alert,omitempty"`
	// RuleIDs are the violated rule IDs, falling back to the rules the
	// trigger evaluated when the alert carries no violations (trajectory
	// and malfunction alerts).
	RuleIDs []string `json:"rule_ids,omitempty"`
	Device  string   `json:"device,omitempty"`
	Seq     int      `json:"seq,omitempty"`
	// TraceID is the trigger's causal trace (32 hex chars); `rabiteval
	// -trace` renders the matching retained trace tree. Empty when
	// tracing was off.
	TraceID string `json:"trace_id,omitempty"`
	// TNS is the lab clock at the alert — detection-latency aggregation
	// reads it.
	TNS int64 `json:"t_ns"`
	// Records is the number of records in records.jsonl.
	Records int `json:"records"`
	// Build identifies the binary that wrote the bundle (module version,
	// VCS revision, dirty bit) — forensics on an old bundle can pin the
	// exact code that raised the alert. Zero on bundles written before
	// provenance stamping.
	Build obs.BuildInfo `json:"build"`
}

// writeBundle freezes the window around a trigger record into a
// self-contained incident bundle directory: manifest.json + a
// records.jsonl holding the full window. Write errors are retained on
// the recorder (Err) and counted; the pipeline never fails on them.
func (r *Recorder) writeBundle(trigger Record) {
	if r.dir == "" {
		return
	}
	trigger.render()
	window := r.Window()
	man := Manifest{
		Schema:    ManifestSchema,
		Tag:       r.tag,
		Corr:      trigger.Corr,
		Chain:     resolveChain(trigger, window),
		AlertKind: trigger.AlertKind,
		Alert:     trigger.Alert,
		RuleIDs:   trigger.Violations,
		Device:    trigger.Device,
		Seq:       trigger.Seq,
		TraceID:   trigger.Trace,
		TNS:       trigger.AlertTNS,
		Records:   len(window),
		Build:     obs.ReadBuild(),
	}
	if man.TNS == 0 {
		man.TNS = trigger.TNS
	}
	if len(man.RuleIDs) == 0 {
		man.RuleIDs = trigger.Rules
	}
	r.bundleMu.Lock()
	defer r.bundleMu.Unlock()
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		r.fail(fmt.Errorf("recorder: incident dir: %w", err))
		return
	}
	var dir string
	for {
		r.bundleSeq++
		name := fmt.Sprintf("incident-%04d-%s", r.bundleSeq, trigger.AlertKind)
		if r.tag != "" {
			name = sanitizeTag(r.tag) + "-" + name
		}
		dir = filepath.Join(r.dir, name)
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			man.Bundle = name
			break
		}
		if !errors.Is(err, fs.ErrExist) {
			r.fail(fmt.Errorf("recorder: bundle dir: %w", err))
			return
		}
		// Name taken (another run shares the directory): bump and retry.
	}
	if err := writeBundleFiles(dir, man, window); err != nil {
		r.fail(err)
		return
	}
	r.cIncidents.Inc()
}

// FileSnapshot freezes the current window into an incident bundle
// without an alert trigger: a synthetic KindSnapshot record carrying the
// given kind and detail is pushed and bundled exactly like an alert
// record. The campaign harness files one for every unsafe injection the
// engine missed — the window is the forensic evidence of what the
// checker saw while the world broke. Nil-safe; a no-op without a bundle
// directory.
func (r *Recorder) FileSnapshot(alertKind, detail string, tNS int64) {
	if r == nil || r.dir == "" {
		return
	}
	trigger := Record{
		corr:      CorrID{n: r.corr.Add(1)},
		Kind:      KindSnapshot,
		AlertKind: alertKind,
		Alert:     detail,
		TNS:       tNS,
		AlertTNS:  tNS,
	}
	r.push(&trigger)
	r.writeBundle(trigger)
}

// resolveChain walks the causal links the window can actually resolve:
// trigger → consumed speculation → the command that hinted it. Links
// whose records fell off the ring are omitted, keeping the invariant
// that every chain entry is present in the bundle.
func resolveChain(trigger Record, window []Record) []string {
	chain := []string{trigger.Corr}
	byCorr := make(map[string]Record, len(window))
	for _, rec := range window {
		byCorr[rec.Corr] = rec
	}
	if sc := trigger.Verdict.SpecCorr; sc != "" {
		spec, ok := byCorr[sc]
		if ok {
			chain = append(chain, sc)
			if p := spec.Parent; p != "" {
				if _, ok := byCorr[p]; ok {
					chain = append(chain, p)
				}
			}
		}
	}
	return chain
}

func writeBundleFiles(dir string, man Manifest, window []Record) error {
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("recorder: manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(mb, '\n'), 0o644); err != nil {
		return fmt.Errorf("recorder: manifest: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "records.jsonl"))
	if err != nil {
		return fmt.Errorf("recorder: records: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, rec := range window {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("recorder: records: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("recorder: records: %w", err)
	}
	return f.Close()
}

// sanitizeTag maps a tag onto the filename-safe alphabet.
func sanitizeTag(tag string) string {
	b := []byte(tag)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// Incident is one loaded bundle.
type Incident struct {
	Dir      string
	Manifest Manifest
	Records  []Record
}

// Record finds a bundled record by correlation ID.
func (in *Incident) Record(corr string) (Record, bool) {
	for _, rec := range in.Records {
		if rec.Corr == corr {
			return rec, true
		}
	}
	return Record{}, false
}

// Trigger returns the bundle's triggering record.
func (in *Incident) Trigger() (Record, bool) {
	return in.Record(in.Manifest.Corr)
}

// LoadIncident reads one bundle directory.
func LoadIncident(dir string) (*Incident, error) {
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("recorder: %w", err)
	}
	in := &Incident{Dir: dir}
	if err := json.Unmarshal(mb, &in.Manifest); err != nil {
		return nil, fmt.Errorf("recorder: manifest %s: %w", dir, err)
	}
	f, err := os.Open(filepath.Join(dir, "records.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("recorder: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("recorder: %s records line %d: %w", dir, line, err)
		}
		in.Records = append(in.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("recorder: %s records: %w", dir, err)
	}
	return in, nil
}

// LoadIncidents reads every bundle under root, sorted by bundle name.
// Non-bundle entries are skipped.
func LoadIncidents(root string) ([]*Incident, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("recorder: %w", err)
	}
	var out []*Incident
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
			continue
		}
		in, err := LoadIncident(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Manifest.Bundle < out[j].Manifest.Bundle })
	return out, nil
}
