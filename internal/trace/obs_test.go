package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/action"
	"repro/internal/geom"
	"repro/internal/obs"
)

// TestJSONLRoundTripLargeRecord exercises lines far beyond bufio's
// default 64 KiB scanner buffer — real traces carry long alert details
// (a blocked command's full violation list).
func TestJSONLRoundTripLargeRecord(t *testing.T) {
	big := strings.Repeat("v", 100*1024)
	recs := []Record{
		{Seq: 1, Outcome: "blocked", Detail: big, Cmd: cmdOpen()},
		{Seq: 2, Outcome: "ok", Cmd: cmdOpen()},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100*1024 {
		t.Fatalf("suspiciously small encoding: %d bytes", buf.Len())
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip lost records: %d", len(got))
	}
	if got[0].Detail != big {
		t.Fatalf("large detail corrupted: %d bytes back", len(got[0].Detail))
	}
	if got[1].Outcome != "ok" {
		t.Fatalf("record after the large line corrupted: %+v", got[1])
	}
}

// seqChecker blocks exactly one sequence number.
type seqChecker struct {
	blockSeq int
	err      error
}

func (c *seqChecker) Before(cmd action.Command) error {
	if cmd.Seq == c.blockSeq {
		return c.err
	}
	return nil
}

func (c *seqChecker) After(action.Command) error { return nil }

// TestReplayStopsAtFirstBlocked replays a recorded stream into an
// interceptor whose checker blocks the second command: the replay must
// stop right there, wrap the checker's error (errors.Is-visible), cite
// the offending record, and never reach the remaining commands.
func TestReplayStopsAtFirstBlocked(t *testing.T) {
	rec := logged(nil, &fakeExecutor{})
	for i := 0; i < 4; i++ {
		if err := rec.Do(cmdOpen()); err != nil {
			t.Fatal(err)
		}
	}

	sentinel := errors.New("mux conflict")
	ex := &fakeExecutor{}
	i := logged(&seqChecker{blockSeq: 2, err: sentinel}, ex)
	err := Replay(i, rec.Records())
	if err == nil {
		t.Fatal("replay did not stop at the blocked command")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("checker error not wrapped: %v", err)
	}
	if !strings.Contains(err.Error(), "replaying #2") {
		t.Errorf("error should cite record #2: %v", err)
	}
	recs := i.Records()
	if len(recs) != 2 || recs[0].Outcome != "ok" || recs[1].Outcome != "blocked" {
		t.Fatalf("replay records wrong: %+v", recs)
	}
	if len(ex.cmds) != 1 {
		t.Fatalf("commands after the block still executed: %d", len(ex.cmds))
	}
}

func TestInterceptorTelemetry(t *testing.T) {
	reg := obs.NewRegistry("interceptor")
	ch := &fakeChecker{}
	ex := &fakeExecutor{}
	i := logged(ch, ex)
	i.SetObserver(reg)

	if err := i.Do(cmdOpen()); err != nil {
		t.Fatal(err)
	}
	ch.beforeErr = errors.New("unsafe")
	if err := i.Do(cmdOpen()); err == nil {
		t.Fatal("blocked command returned nil")
	}

	snap := reg.Snapshot()
	if got := snap.Counter(obs.PrefixOutcome + "ok"); got != 1 {
		t.Errorf("outcome.ok = %d, want 1", got)
	}
	if got := snap.Counter(obs.PrefixOutcome + "blocked"); got != 1 {
		t.Errorf("outcome.blocked = %d, want 1", got)
	}
	if got := snap.Counter(obs.PrefixDevice + "dd.ok"); got != 1 {
		t.Errorf("device.dd.ok = %d, want 1", got)
	}
	if got := snap.Counter(obs.PrefixDevice + "dd.blocked"); got != 1 {
		t.Errorf("device.dd.blocked = %d, want 1", got)
	}
	if hs, ok := snap.Histogram(obs.StageIntercept); !ok || hs.Count != 2 {
		t.Errorf("intercept histogram = %+v (ok=%v), want 2 spans", hs, ok)
	}
	// Execute ran only for the ok command.
	if hs, ok := snap.Histogram(obs.StageExecute); !ok || hs.Count != 1 {
		t.Errorf("execute histogram = %+v (ok=%v), want 1 span", hs, ok)
	}
}

func TestDoConcurrentTelemetry(t *testing.T) {
	reg := obs.NewRegistry("interceptor")
	i := logged(&fakeChecker{}, &fakeExecutor{})
	i.SetObserver(reg)
	cmds := []action.Command{
		{Device: "a1", Action: action.MoveRobot, Target: geom.V(0.1, 0, 0.2)},
		{Device: "a2", Action: action.MoveRobot, Target: geom.V(0.3, 0, 0.2)},
	}
	if err := i.DoConcurrent(cmds); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.PrefixOutcome + "ok"); got != 2 {
		t.Errorf("outcome.ok = %d, want 2 (one per batched command)", got)
	}
	if hs, _ := snap.Histogram(obs.StageIntercept); hs.Count != 1 {
		t.Errorf("intercept spans = %d, want 1 (one per batch)", hs.Count)
	}
}

// TestDoConcurrentEmptyBatch: an empty batch is a no-op — no sequence
// number, record, execution or intercept observation — rather than an
// index-out-of-range panic on the batch's last command.
func TestDoConcurrentEmptyBatch(t *testing.T) {
	reg := obs.NewRegistry("interceptor")
	ch := &fakeChecker{}
	ex := &fakeExecutor{}
	i := logged(ch, ex)
	i.SetObserver(reg)
	for _, batch := range [][]action.Command{nil, {}} {
		if err := i.DoConcurrent(batch); err != nil {
			t.Fatalf("DoConcurrent(%v) = %v, want nil", batch, err)
		}
	}
	if i.Len() != 0 || len(ex.cmds) != 0 || len(ch.befores) != 0 || len(ch.afters) != 0 {
		t.Errorf("empty batch recorded %d, executed %d, checked %d/%d commands",
			i.Len(), len(ex.cmds), len(ch.befores), len(ch.afters))
	}
	if hs, _ := reg.Snapshot().Histogram(obs.StageIntercept); hs.Count != 0 {
		t.Errorf("intercept spans = %d, want 0", hs.Count)
	}
	// The sequence counter did not advance: the next command is #1.
	if err := i.Do(cmdOpen()); err != nil {
		t.Fatal(err)
	}
	if recs := i.Records(); recs[0].Seq != 1 {
		t.Errorf("first command after empty batches has seq %d, want 1", recs[0].Seq)
	}
}
