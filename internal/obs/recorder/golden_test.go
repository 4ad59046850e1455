package recorder

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/action"
	"repro/internal/obs"
	"repro/internal/state"
)

// goldenModel is the lab state the golden sequence captures its views
// from: keys owned by the commanded devices, keys owned by others, an
// exogenous sensor, and every value kind.
func goldenModel() state.Snapshot {
	return state.Snapshot{
		state.DoorStatus("hp00"):              state.Bool(true),
		state.ActionValue("hp00"):             state.Float(80),
		state.Running("hp00"):                 state.Bool(false),
		state.ContainerInside("hp00"):         state.Str("vial_1"),
		state.HasLiquid("vial_1"):             state.Bool(true),
		state.LiquidAmount("vial_1"):          state.Float(2.5),
		state.SolidAmount("vial_1"):           state.Int(12),
		state.ObjectAt("grid_A1"):             state.Str("vial_2"),
		state.DoorStatus("hp01"):              state.Bool(false),
		state.ArmAt("viperx"):                 state.Str("home"),
		state.ArmInside("viperx", "hp00"):     state.Bool(false),
		state.Holding("viperx"):               state.Bool(false),
		state.ZoneOccupied("zone0"):           state.Bool(false),
		state.MakeKey("deviceTemp", "hp02"):   state.Float(21.25),
		state.MakeKey("containerCap", "vial"): state.Str("open"),
	}
}

// writeGoldenSequence drives a recorder through a fixed sequence — a
// sharded command with all three views (its expectation deletes a key,
// which renders ∅), a global batch settled by its second command, a
// filed snapshot, a speculation hinted by the first command, and an
// alert that consumed that speculation — and returns the directory of
// the alert's bundle.
func writeGoldenSequence(t *testing.T, dir string) string {
	t.Helper()
	r := New(Options{Dir: dir, Tag: "golden"})
	model := goldenModel()
	ix := NewViewIndex(model)
	ids := []string{"hp00", "vial_1"}

	set := action.Command{Device: "hp00", Action: action.SetActionValue, Value: 120, Seq: 1}
	a := r.Begin(set, PathSharded)
	a.R.TNS = 1_000
	a.R.Rules = append(a.R.Rules[:0], "GR2", "HP1")
	a.CapturePre(model, ix, ids)
	exp := state.NewOverlay(model)
	exp.Set(state.ActionValue("hp00"), state.Float(120))
	exp.Delete(state.ObjectAt("grid_A1"))
	a.CaptureExpected(exp)
	observed := model.Clone()
	observed[state.ActionValue("hp00")] = state.Float(120)
	a.CaptureObserved(observed, ix, ids)
	a.R.Spans = Spans{ValidateNS: 1_200, FetchNS: 300, CompareNS: 150}
	a.R.Verdict.EpochAtCommit = 4
	a.R.Trace = "0123456789abcdef0123456789abcdef"
	a.Commit()
	r.Annotate("hp00", 1, "ok", 5_000)
	parent := a.Corr().String()
	a.Release()

	first := r.Begin(action.Command{Device: "hp01", Action: action.OpenDoor, Seq: 2}, PathGlobal)
	first.R.TNS = 2_000
	first.CapturePre(model, nil, []string{"hp01"})
	second := r.Begin(action.Command{Device: "hp02", Action: action.ReadStatus, Seq: 3}, PathGlobal)
	second.R.TNS = 2_000
	second.CaptureObserved(model, nil, []string{"hp02"})
	second.Commit()
	first.R.SettledBy = second.Corr().String()
	first.Commit()
	first.Release()
	second.Release()

	r.FileSnapshot("missed_unsafe_injection", "vial_2 knocked over", 7_000)

	move := action.Command{Device: "viperx", Action: action.MoveRobot, TargetName: "hp00", Seq: 4}
	spec := r.BeginSpec(parent, move)
	spec.R.TNS = 8_000
	spec.R.Verdict = Verdict{Source: SourceSpeculative, EpochAtValidation: 4}
	spec.R.Spans.TrajectoryNS = 40_000
	specCorr := spec.Corr().String()
	spec.Commit()
	spec.Release()

	trig := r.Begin(move, PathGlobal)
	trig.R.TNS = 9_000
	trig.R.Rules = append(trig.R.Rules[:0], "GR1", "GR4")
	trig.CapturePre(model, ix, []string{"viperx", "hp00"})
	trig.R.Verdict = Verdict{Source: SourceSpeculative, EpochAtValidation: 4, SpecCorr: specCorr}
	trig.R.Spans.ValidateNS = 900
	trig.R.AlertKind = "invalid_trajectory"
	trig.R.Alert = "RABIT alert: Invalid trajectory! command viperx move_robot: collision with hp00"
	trig.R.AlertTNS = 9_500
	trig.CommitIncident()
	trig.Release()

	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "golden-incident-0002-invalid_trajectory")
}

// normalizedManifest re-encodes a bundle manifest without its build
// provenance, which names the toolchain that ran the test.
func normalizedManifest(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	m.Build = obs.BuildInfo{}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestBundleMatchesGolden checks the golden sequence's alert bundle
// against testdata, written by the recorder that rendered every view to
// a string map at capture time: records.jsonl is byte-identical and the
// manifest is identical apart from build provenance.
func TestBundleMatchesGolden(t *testing.T) {
	bundle := writeGoldenSequence(t, t.TempDir())
	for _, name := range []string{"records.jsonl", "manifest.json"} {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		if name == "manifest.json" {
			got = normalizedManifest(t, filepath.Join(bundle, name))
		} else if got, err = os.ReadFile(filepath.Join(bundle, name)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestWindowKeepsViewsAfterWrap takes a window, then wraps the ring so
// every slot — and every view and rule array it owns — is reused by
// other records; the window taken earlier must still hold its own views.
func TestWindowKeepsViewsAfterWrap(t *testing.T) {
	r := New(Options{Depth: 8})
	model := goldenModel()
	a := r.Begin(cmd("hp00", 1), PathSharded)
	a.R.Rules = append(a.R.Rules[:0], "GR2")
	a.CapturePre(model, nil, []string{"hp00"})
	a.Commit()
	a.Release()
	w := r.Window()
	if len(w) != 1 || len(w[0].Pre) != 6 || len(w[0].Rules) != 1 {
		t.Fatalf("window before wrap: %+v", w)
	}
	want := make(map[string]string, len(w[0].Pre))
	for k, v := range w[0].Pre {
		want[k] = v
	}
	other := state.Snapshot{state.DoorStatus("hp00"): state.Bool(false), state.MakeKey("deviceTemp", "hp00"): state.Int(90)}
	for seq := 2; seq < 20; seq++ {
		b := r.Begin(cmd("hp00", seq), PathSharded)
		b.R.Rules = append(b.R.Rules[:0], "XX")
		b.CapturePre(other, NewViewIndex(other), []string{"hp00"})
		b.Commit()
		b.Release()
	}
	if !reflect.DeepEqual(w[0].Pre, want) || w[0].Rules[0] != "GR2" {
		t.Fatalf("window record changed after the ring wrapped: pre %v (want %v), rules %v", w[0].Pre, want, w[0].Rules)
	}
}

// TestIndexedViewMatchesScan captures views through a ViewIndex and by
// scanning the snapshot, over scopes that share keys (a key naming two
// scope IDs, a key naming one ID twice) and a scope past ViewLimit's
// reach: both must render the same map.
func TestIndexedViewMatchesScan(t *testing.T) {
	model := goldenModel()
	model[state.MakeKey("pair", "hp00", "hp00")] = state.Int(2)
	model[state.MakeKey("link", "viperx", "vial_1")] = state.Str("x")
	model[state.MakeKey("flag")] = state.Bool(true)
	scopes := [][]string{
		{"hp00"}, {"hp00", "vial_1", "", "viperx"}, {"viperx", "hp00", "viperx"},
		{"nobody"}, {}, {"", "", "", "", "", ""}, {"zone0"},
	}
	ix := NewViewIndex(model)
	for _, ids := range scopes {
		scan := renderFacts(nil, appendView(nil, model, nil, ids))
		indexed := renderFacts(nil, appendView(nil, model, ix, ids))
		if !reflect.DeepEqual(scan, indexed) {
			t.Errorf("scope %q: indexed %v, scan %v", ids, indexed, scan)
		}
	}
	big := state.Snapshot{}
	for i := 0; i < 2*ViewLimit; i++ {
		big[state.MakeKey("k", fmt.Sprint(i), "dev")] = state.Int(int64(i))
	}
	if n := len(appendView(nil, big, NewViewIndex(big), []string{"dev"})); n != ViewLimit {
		t.Errorf("indexed view of %d matching keys holds %d, want ViewLimit", len(big), n)
	}
}

// TestCorrIDMatchesFormat pins the fmt-free rendering to the c-%06d text.
func TestCorrIDMatchesFormat(t *testing.T) {
	for _, n := range []uint64{1, 9, 42, 999_999, 1_000_000, 123_456_789, 1<<64 - 1} {
		if got, want := (CorrID{n: n}).String(), fmt.Sprintf("c-%06d", n); got != want {
			t.Errorf("CorrID(%d) = %q, want %q", n, got, want)
		}
		if got, want := (CorrID{n: n, spec: true}).String(), fmt.Sprintf("s-%06d", n); got != want {
			t.Errorf("spec CorrID(%d) = %q, want %q", n, got, want)
		}
	}
	if s := (CorrID{}).String(); s != "" {
		t.Errorf("zero CorrID = %q", s)
	}
}

// TestShardOfMatchesFNV pins the inline hash to hash/fnv's FNV-1a, so
// every device keeps its shard.
func TestShardOfMatchesFNV(t *testing.T) {
	for _, d := range []string{"", "hp00", "hp01", "viperx", "dosing_device", "ned2", "ä-unicode", "zone0"} {
		h := fnv.New32a()
		h.Write([]byte(d))
		if got, want := shardOf(d), int(h.Sum32()%numShards); got != want {
			t.Errorf("shardOf(%q) = %d, want %d", d, got, want)
		}
	}
}
