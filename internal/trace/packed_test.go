package trace

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/obs"
)

// scriptedChecker blocks commands whose Object is "block" and fails the
// post-state check of commands whose Object starts with "post" or ends
// with "-post".
type scriptedChecker struct{}

func (scriptedChecker) Before(cmd action.Command) error {
	if cmd.Object == "block" {
		return fmt.Errorf("rule: %s is unsafe", cmd)
	}
	return nil
}

func (scriptedChecker) After(cmd action.Command) error {
	if strings.HasPrefix(cmd.Object, "post") || strings.HasSuffix(cmd.Object, "-post") {
		return fmt.Errorf("state: %s left a mismatch", cmd)
	}
	return nil
}

// scriptedExecutor fails commands (or batches holding a command) whose
// Object starts with "crash", and advances time per execution.
type scriptedExecutor struct{ now time.Duration }

func (e *scriptedExecutor) Execute(cmd action.Command) error {
	e.now += 1500 * time.Millisecond
	if strings.HasPrefix(cmd.Object, "crash") {
		return fmt.Errorf("lab: %s crashed", cmd)
	}
	return nil
}

func (e *scriptedExecutor) ExecuteConcurrent(cmds []action.Command) error {
	e.now += 2 * time.Second
	for _, c := range cmds {
		if strings.HasPrefix(c.Object, "crash") {
			return fmt.Errorf("lab: batch crashed on %s", c)
		}
	}
	return nil
}

func (e *scriptedExecutor) Now() time.Duration { return e.now }

// fullCommand sets every Command field, so a field the packed log drops
// shows up as a difference.
func fullCommand() action.Command {
	return action.Command{
		Device: "viperx", Action: action.MoveRobot,
		Target: geom.V(0.125, -0.25, 1.0/3), TargetName: "grid_NW",
		InsideDevice: "dosing_device", Door: "front", Object: "vial_1",
		FromContainer: "stock", ToContainer: "vial_1",
		Value: 2.5, Roll: 0.75, Duration: 1234 * time.Millisecond,
	}
}

// runMixedTrace drives one interceptor through every recording path: Do
// ok/blocked/invalid/execute-error/post-state-error, an execute error
// whose post-state check also fails, DoLookahead, DoConcurrent ok,
// blocked, crashed and invalid mid-batch (leaving gaps in seq), empty
// string fields, and Reset followed by reuse. withLog attaches a command
// log. It returns the records before and after the Reset, Len at both
// points, and the golden text: both traces as JSONL, then the
// outcome/device counters.
func runMixedTrace(t *testing.T, withLog bool) (before, after []Record, lens [2]int, golden []byte) {
	t.Helper()
	reg := obs.NewRegistry("packed")
	i := NewInterceptor(scriptedChecker{}, &scriptedExecutor{})
	if withLog {
		i.SetLog(new(Log))
	}
	i.SetObserver(reg)
	full := fullCommand()
	with := func(obj string) action.Command { c := full; c.Object = obj; return c }
	hot := action.Command{Device: "hotplate", Action: action.SetActionValue, Value: 80}
	steps := []func() error{
		func() error { return i.Do(full) },
		func() error { return i.Do(with("block")) },
		func() error { return i.Do(action.Command{Action: action.OpenDoor}) }, // no device
		func() error { return i.Do(with("crash")) },
		func() error { return i.Do(with("crash-post")) },
		func() error { return i.Do(with("post")) },
		func() error { return i.Do(hot) },
		func() error { return i.DoLookahead(full, hot) },
		func() error { return i.DoLookahead(with("block"), hot) },
		func() error { return i.DoConcurrent([]action.Command{full, hot}) },
		func() error {
			return i.DoConcurrent([]action.Command{
				full, {Device: "pump", Action: action.TransferSubstance}, hot, // invalid mid-batch
			})
		},
		func() error { return i.DoConcurrent([]action.Command{hot, with("block"), full}) },
		func() error { return i.DoConcurrent([]action.Command{with("crash"), hot}) },
		func() error { return i.DoConcurrent([]action.Command{hot, with("post")}) },
		func() error { return i.Do(hot) },
	}
	for _, step := range steps {
		_ = step()
	}
	before, lens[0] = i.Records(), i.Len()
	if withLog && lens[0] != len(before) {
		t.Fatalf("Len() = %d, Records() holds %d", lens[0], len(before))
	}
	i.Reset()
	if i.Len() != 0 || len(i.Records()) != 0 {
		t.Fatalf("Reset left %d records", i.Len())
	}
	for _, step := range []func() error{
		func() error { return i.Do(with("fresh")) },
		func() error { return i.Do(with("block")) },
		func() error { return i.DoConcurrent([]action.Command{hot, full}) },
	} {
		_ = step()
	}
	after, lens[1] = i.Records(), i.Len()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, before); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("--- reset ---\n")
	if err := WriteJSONL(&buf, after); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("--- counters ---\n")
	var lines []string
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, obs.PrefixOutcome) || strings.HasPrefix(c.Name, obs.PrefixDevice) {
			lines = append(lines, fmt.Sprintf("%s %d\n", c.Name, c.Value))
		}
	}
	sort.Strings(lines)
	buf.WriteString(strings.Join(lines, ""))
	return before, after, lens, buf.Bytes()
}

// TestPackedTraceMatchesRecordLog checks the packed command log against
// testdata/mixed_trace.golden, written by the interceptor that stored
// whole Records: the JSONL trace and the outcome/device counters are
// byte-identical, and Records() deep-equals the records read back from
// it.
func TestPackedTraceMatchesRecordLog(t *testing.T) {
	before, after, _, got := runMixedTrace(t, true)
	const path = "testdata/mixed_trace.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace/counters differ from %s:\n%s\nwant:\n%s", path, got, want)
	}
	parts := bytes.Split(want, []byte("--- reset ---\n"))
	wantBefore, err := ReadJSONL(bytes.NewReader(parts[0]))
	if err != nil {
		t.Fatal(err)
	}
	wantAfter, err := ReadJSONL(bytes.NewReader(bytes.Split(parts[1], []byte("--- counters ---\n"))[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, wantBefore) {
		t.Errorf("Records() before Reset:\n%+v\nwant\n%+v", before, wantBefore)
	}
	if !reflect.DeepEqual(after, wantAfter) {
		t.Errorf("Records() after Reset:\n%+v\nwant\n%+v", after, wantAfter)
	}
	// The mix reaches every outcome, leaves seq gaps and empty devices.
	seen := map[string]bool{}
	gap := false
	for k, r := range before {
		seen[r.Outcome] = true
		if r.Cmd.Seq != r.Seq {
			t.Errorf("record %d: Cmd.Seq %d != Seq %d", k, r.Cmd.Seq, r.Seq)
		}
		if k > 0 && r.Seq > before[k-1].Seq+1 {
			gap = true
		}
	}
	if !seen["ok"] || !seen["blocked"] || !seen["error"] || !gap {
		t.Errorf("mixed trace misses a path: outcomes %v, seq gap %v", seen, gap)
	}
	if after[0].Seq != 1 {
		t.Errorf("first record after Reset has seq %d, want 1", after[0].Seq)
	}
}

// TestUnloggedInterceptorKeepsCounters runs the mixed trace without a
// command log: Records holds nothing, while Len and the outcome/device
// counters are exactly those of the logging interceptor.
func TestUnloggedInterceptorKeepsCounters(t *testing.T) {
	logBefore, logAfter, logLens, logText := runMixedTrace(t, true)
	before, after, lens, text := runMixedTrace(t, false)
	if before != nil || after != nil {
		t.Fatalf("unlogged interceptor kept %d+%d records", len(before), len(after))
	}
	if lens != logLens || lens[0] != len(logBefore) || lens[1] != len(logAfter) {
		t.Fatalf("Len() = %v, logging interceptor %v", lens, logLens)
	}
	counters := func(b []byte) string { return string(b[bytes.Index(b, []byte("--- counters ---\n")):]) }
	if counters(text) != counters(logText) {
		t.Fatalf("counters differ:\n%s\nwant:\n%s", counters(text), counters(logText))
	}
}

// TestEntrySize pins the packed entry at 120 bytes on 64-bit platforms
// (a Record is 232).
func TestEntrySize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are for 64-bit platforms")
	}
	if got := unsafe.Sizeof(entry{}); got != 120 {
		t.Errorf("entry is %d bytes, want 120", got)
	}
	if got := unsafe.Sizeof(Record{}); got != 232 {
		t.Errorf("Record is %d bytes, want 232", got)
	}
}
