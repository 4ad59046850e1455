package rabit_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	rabit "repro"
	"repro/internal/obs"
)

// TestTelemetryAgreesWithCheckOverhead is the ISSUE's acceptance
// criterion end to end: run the fig5 workflow on the testbed deck with
// the Extended Simulator, then verify that the live introspection
// endpoints (/debug/vars and /metrics, the same handler -metrics
// serves) report exactly what Engine.CheckOverhead() reports, and that
// the per-stage histograms are populated.
func TestTelemetryAgreesWithCheckOverhead(t *testing.T) {
	sys, err := rabit.NewTestbed(rabit.Options{ExtendedSimulator: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if err := rabit.RunSteps(sys.Session, rabit.Fig5Workflow()); err != nil {
		t.Fatalf("fig5 workflow: %v", err)
	}

	check, commands := sys.Engine.CheckOverhead()
	if commands == 0 || check <= 0 {
		t.Fatalf("workflow ran no checked commands: (%v, %d)", check, commands)
	}

	// The snapshot API and CheckOverhead read the same counters.
	snap := sys.ObsSnapshot()
	if got := snap.Counter(obs.CounterCommands); got != int64(commands) {
		t.Errorf("snapshot commands = %d, CheckOverhead = %d", got, commands)
	}
	if got := snap.Counter(obs.CounterCheckNS); got != check.Nanoseconds() {
		t.Errorf("snapshot check.ns = %d, CheckOverhead = %d", got, check.Nanoseconds())
	}

	// Every Before/After stage fired: validate and compare on each
	// command, trajectory on the robot motions.
	for _, stage := range []string{obs.StageValidate, obs.StageTrajectory, obs.StageCompare} {
		hs, ok := snap.Histogram(stage)
		if !ok || hs.Count == 0 {
			t.Errorf("stage %s histogram empty (ok=%v, %+v)", stage, ok, hs)
		}
	}

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	// Other tests in this package register systems on the same lab, so
	// this system scrapes under a disambiguated alias — find it by its
	// (practically unique) accumulated check time.
	alias := ""
	for _, s := range obs.Snapshots() {
		if s.Counter(obs.CounterCheckNS) == check.Nanoseconds() &&
			s.Counter(obs.CounterCommands) == int64(commands) {
			alias = s.Name
		}
	}
	if alias == "" {
		t.Fatal("scrape group has no snapshot for this system")
	}
	if !strings.HasPrefix(alias, "rabit/"+sys.Lab.Spec.Lab) {
		t.Errorf("alias %q does not carry the registry name", alias)
	}

	// /metrics carries the same command count under that alias.
	body := httpGet(t, srv.URL+"/metrics")
	want := fmt.Sprintf("rabit_commands{reg=%q} %d", alias, commands)
	if !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q", want)
	}
	if !strings.Contains(body, `rabit_before_validate_count`) {
		t.Errorf("/metrics missing the validate stage histogram")
	}

	// /debug/vars exposes the same snapshots under the "rabit" expvar.
	var vars struct {
		Rabit []obs.Snapshot `json:"rabit"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	found := false
	for _, s := range vars.Rabit {
		if s.Name != alias {
			continue
		}
		found = true
		if got := s.Counter(obs.CounterCommands); got != int64(commands) {
			t.Errorf("/debug/vars commands = %d, CheckOverhead = %d", got, commands)
		}
	}
	if !found {
		t.Errorf("/debug/vars has no snapshot for this system")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
