package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestWritePromText(t *testing.T) {
	reg := NewRegistry("prom-test")
	reg.Counter("outcome.ok").Add(7)
	reg.Gauge("pending").Set(3)
	h := reg.Histogram(StageValidate)
	h.Observe(5 * time.Microsecond)
	h.Observe(40 * time.Microsecond)
	h.Observe(3 * time.Millisecond)

	var b strings.Builder
	snap := reg.Snapshot()
	snap.Name = "prom-test"
	WritePromText(&b, []Snapshot{snap})
	text := b.String()

	for _, want := range []string{
		"# TYPE rabit_outcome_ok_total counter",
		`rabit_outcome_ok_total{reg="prom-test"} 7`,
		"# TYPE rabit_pending gauge",
		`rabit_pending{reg="prom-test"} 3`,
		"# TYPE rabit_before_validate_seconds histogram",
		`rabit_before_validate_seconds_bucket{reg="prom-test",le="+Inf"} 3`,
		`rabit_before_validate_seconds_count{reg="prom-test"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// The bucket series must be dense (every fixed bound plus +Inf) and
	// monotonically non-decreasing.
	bounds := BucketBoundsNS()
	prefix := `rabit_before_validate_seconds_bucket{reg="prom-test",le=`
	var counts []int64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			var v int64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			counts = append(counts, v)
		}
	}
	if len(counts) != len(bounds)+1 {
		t.Fatalf("bucket series has %d entries, want %d (+Inf included)", len(counts), len(bounds)+1)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("cumulative bucket counts decrease at %d: %v", i, counts)
		}
	}
	if counts[len(counts)-1] != 3 {
		t.Fatalf("+Inf bucket = %d, want total count 3", counts[len(counts)-1])
	}

	// One # TYPE header per family.
	if n := strings.Count(text, "# TYPE rabit_before_validate_seconds "); n != 1 {
		t.Fatalf("histogram family declared %d times", n)
	}
}

func TestWritePromTextEmptyHistogram(t *testing.T) {
	reg := NewRegistry("prom-empty")
	reg.Histogram(StageCompare) // instantiated, never observed
	var b strings.Builder
	snap := reg.Snapshot()
	snap.Name = "prom-empty"
	WritePromText(&b, []Snapshot{snap})
	if !strings.Contains(b.String(), `rabit_after_compare_seconds_bucket{reg="prom-empty",le="+Inf"} 0`) {
		t.Fatalf("empty histogram must still expose a complete series:\n%s", b.String())
	}
}

// TestPromHostileLabels is the escaping regression test: registry names
// carrying backslashes, quotes, and newlines must land in label values
// escaped per the exposition format — and exactly those three bytes, so
// parsers reconstruct the original value.
func TestPromHostileLabels(t *testing.T) {
	hostile := "lab \"A\"\\east\nwing"
	reg := NewRegistry(hostile)
	reg.Counter("outcome.ok").Inc()
	var b strings.Builder
	snap := reg.Snapshot()
	snap.Name = hostile
	WritePromText(&b, []Snapshot{snap})
	want := `rabit_outcome_ok_total{reg="lab \"A\"\\east\nwing"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, b.String())
	}
	// One physical line per sample: the raw newline must not survive.
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "wing") {
			t.Fatalf("unescaped newline split a sample line:\n%s", b.String())
		}
	}
	// Bytes the format takes literally pass through untouched.
	if got := escapeLabel("tab\there"); got != "tab\there" {
		t.Fatalf("escapeLabel mangled a literal tab: %q", got)
	}

	// The flat /metrics rendering claims the same text format, so a tab
	// and a non-breaking space reach it literally too — not Go-quoted as
	// \t and \u00a0, for the registry label and family label values alike.
	literal := "lab\t\u00a0west"
	g := NewGroup()
	lr := NewRegistry(literal)
	lr.Counter("outcome.ok").Inc()
	lr.CounterFamily("rule.fires", "rule").Counter(literal).Add(2)
	lr.HistogramFamily("rule.eval", "rule").Histogram(literal).Observe(time.Millisecond)
	g.Register(lr)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	body := mustGet(t, srv.URL+"/metrics")
	lbl := `reg="` + literal + `"`
	for _, want := range []string{
		`rabit_outcome_ok{` + lbl + `} 1`,
		`rabit_rule_fires{` + lbl + `,rule="` + literal + `"} 2`,
		`rabit_rule_eval_count{` + lbl + `,rule="` + literal + `"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, `\t`) || strings.Contains(body, `\u00a0`) {
		t.Errorf("/metrics Go-quoted a label value:\n%s", body)
	}
}

// TestPromHelpTypeOncePerFamily: several registries carrying the same
// instruments must merge under a single # HELP/# TYPE header pair per
// family, with every registry's series beneath it.
func TestPromHelpTypeOncePerFamily(t *testing.T) {
	var snaps []Snapshot
	for _, name := range []string{"sysA", "sysB", "sysC"} {
		reg := NewRegistry(name)
		reg.Counter(CounterCommands).Add(3)
		reg.Histogram(StageValidate).Observe(time.Millisecond)
		snap := reg.Snapshot()
		snap.Name = name
		snaps = append(snaps, snap)
	}
	var b strings.Builder
	WritePromText(&b, snaps)
	text := b.String()
	for _, family := range []string{"rabit_commands_total", "rabit_before_validate_seconds"} {
		if n := strings.Count(text, "# HELP "+family+" "); n != 1 {
			t.Errorf("family %s has %d HELP lines, want 1", family, n)
		}
		if n := strings.Count(text, "# TYPE "+family+" "); n != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1", family, n)
		}
	}
	for _, name := range []string{"sysA", "sysB", "sysC"} {
		if !strings.Contains(text, fmt.Sprintf(`rabit_commands_total{reg="%s"} 3`, name)) {
			t.Errorf("registry %s's series missing", name)
		}
	}
	// HELP text itself escapes backslash and newline.
	if got := escapeHelp(`a\b` + "\nc"); got != `a\\b\nc` {
		t.Fatalf("escapeHelp = %q", got)
	}
}

// TestWritePromSLOs covers the SLO exposition: per-SLO objective and
// threshold gauges plus per-window good/bad/burn-rate series.
func TestWritePromSLOs(t *testing.T) {
	// Objective 0.5 keeps the error budget a power of two, so the
	// burn-rate sample values render without float dust.
	slo := NewSLO("check_overhead", 0.5, 5*time.Millisecond)
	for i := 0; i < 99; i++ {
		slo.Observe(time.Millisecond)
	}
	slo.Observe(50 * time.Millisecond) // one bad in 100: burn = 0.01/0.5
	var b strings.Builder
	WritePromSLOs(&b, []SLOSnapshot{slo.Snapshot()})
	text := b.String()
	for _, want := range []string{
		`rabit_slo_objective{slo="check_overhead"} 0.5`,
		`rabit_slo_threshold_seconds{slo="check_overhead"} 0.005`,
		`rabit_slo_good{slo="check_overhead",window="5m0s"} 99`,
		`rabit_slo_bad{slo="check_overhead",window="5m0s"} 1`,
		`rabit_slo_burn_rate{slo="check_overhead",window="5m0s"} 0.02`,
		`rabit_slo_burn_rate{slo="check_overhead",window="1h0m0s"} 0.02`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("SLO exposition missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "# TYPE rabit_slo_burn_rate gauge"); n != 1 {
		t.Errorf("burn-rate family declared %d times", n)
	}
	// An empty group writes nothing at all — not even headers.
	var empty strings.Builder
	WritePromSLOs(&empty, nil)
	if empty.Len() != 0 {
		t.Errorf("empty SLO group wrote %q", empty.String())
	}
}

// TestServeGracefulShutdown drives the real listener: serve, scrape both
// exposition endpoints, shut down, and verify the address is released.
func TestServeGracefulShutdown(t *testing.T) {
	reg := NewRegistry("shutdown-test")
	Register(reg)
	defer Unregister(reg)
	reg.Counter("outcome.ok").Inc()

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/metrics", "/metrics/prom"} {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "outcome") {
			t.Fatalf("GET %s: registry missing from exposition", path)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
	// A second Serve on the same address proves the listener was freed.
	srv2, err := Serve(srv.Addr)
	if err != nil {
		t.Fatalf("rebind after shutdown: %v", err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil server close: %v", err)
	}
}
