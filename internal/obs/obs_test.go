package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry("test")
	c := r.Counter("commands")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("commands") != c {
		t.Fatal("Counter must return the same instance per name")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero the counter")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(time.Millisecond)
	r.Reset()
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 100 observations at ~3µs, 10 at ~300µs, 1 at 30ms.
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(300 * time.Microsecond)
	}
	h.Observe(30 * time.Millisecond)
	if h.Count() != 111 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 30*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	if p50 := h.P50(); p50 < 2*time.Microsecond || p50 > 5*time.Microsecond {
		t.Errorf("p50 = %v, want within the 2–5µs bucket", p50)
	}
	if p99 := h.P99(); p99 < 200*time.Microsecond || p99 > 500*time.Microsecond {
		t.Errorf("p99 = %v, want within the 200–500µs bucket", p99)
	}
	if mean := h.Mean(); mean <= 0 {
		t.Errorf("mean = %v", mean)
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.P95() != 0 {
		t.Fatal("Reset left observations behind")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(20 * time.Second) // beyond the last bound
	if h.P50() != 20*time.Second {
		t.Fatalf("overflow quantile = %v, want the max", h.P50())
	}
	s := h.snapshot("x")
	if len(s.Buckets) != 1 || s.Buckets[0].UpperNS != 0 {
		t.Fatalf("overflow bucket snapshot wrong: %+v", s.Buckets)
	}
}

func TestSnapshotLookup(t *testing.T) {
	r := NewRegistry("snap")
	r.Counter("a").Add(2)
	r.Gauge("g").Set(9)
	r.Histogram("h").Observe(time.Microsecond)
	s := r.Snapshot()
	if s.Name != "snap" {
		t.Fatalf("name = %q", s.Name)
	}
	if s.Counter("a") != 2 || s.Counter("missing") != 0 {
		t.Fatalf("counter lookup wrong: %+v", s.Counters)
	}
	hs, ok := s.Histogram("h")
	if !ok || hs.Count != 1 {
		t.Fatalf("histogram lookup wrong: %+v ok=%v", hs, ok)
	}
}

// TestRegistryConcurrency hammers every instrument type from many
// goroutines; run under -race this is the registry's thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry("race")
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared").Inc()
				r.Counter("own-" + string(rune('a'+w))).Inc()
				r.Gauge("depth").Add(1)
				r.Gauge("depth").Add(-1)
				r.Histogram("stage").Observe(time.Microsecond)
				r.Histogram("direct").Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*iters {
		t.Fatalf("shared counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("stage").Count(); got != workers*iters {
		t.Fatalf("stage histogram count = %d, want %d", got, workers*iters)
	}
	if r.Gauge("depth").Value() != 0 {
		t.Fatalf("gauge drifted: %d", r.Gauge("depth").Value())
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry("httptest-reg")
	Register(r)
	defer Unregister(r)
	r.Counter("commands").Add(3)
	r.Histogram("intercept").Observe(5 * time.Microsecond)

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	vars := get("/debug/vars")
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := decoded["rabit"]; !ok {
		t.Fatal("/debug/vars missing the rabit snapshot tree")
	}
	var snaps []Snapshot
	if err := json.Unmarshal(decoded["rabit"], &snaps); err != nil {
		t.Fatalf("rabit expvar not a snapshot list: %v", err)
	}
	found := false
	for _, s := range snaps {
		if s.Name == "httptest-reg" && s.Counter("commands") == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered registry absent from /debug/vars: %+v", snaps)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, `rabit_commands{reg="httptest-reg"} 3`) {
		t.Fatalf("/metrics missing counter line:\n%s", metrics)
	}
	if !strings.Contains(metrics, `rabit_intercept_count{reg="httptest-reg"} 1`) {
		t.Fatalf("/metrics missing histogram count:\n%s", metrics)
	}

	if pprofIdx := get("/debug/pprof/"); !strings.Contains(pprofIdx, "goroutine") {
		t.Fatal("/debug/pprof/ index not served")
	}
}

func TestRegisterDisambiguatesDuplicateNames(t *testing.T) {
	a, b := NewRegistry("dup-reg"), NewRegistry("dup-reg")
	a.Counter("commands").Add(1)
	b.Counter("commands").Add(2)
	Register(a)
	Register(b)
	defer Unregister(a)
	defer Unregister(b)

	byName := map[string]int64{}
	for _, s := range Snapshots() {
		if strings.HasPrefix(s.Name, "dup-reg") {
			byName[s.Name] = s.Counter("commands")
		}
	}
	// Two same-named registries must scrape under two distinct aliases
	// (exact #N suffixes depend on how many this process has ever
	// registered), with neither's data lost or merged.
	if len(byName) != 2 {
		t.Fatalf("duplicate registrations collapsed: %v", byName)
	}
	seen := map[int64]bool{}
	for _, v := range byName {
		seen[v] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("aliased registrations lost data: %v", byName)
	}
}

func TestServeBindsAndAnswers(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics endpoint: %s", resp.Status)
	}
}

func TestServeSeesLateRegisteredRoutes(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// CLI modes mount auxiliary routes after the flag-driven server is
	// already listening (rabiteval registers /campaign inside the
	// campaign mode). The listener must resolve routes per request, not
	// from a mux snapshotted at Serve time.
	RegisterHTTPHandler("/late-route", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "late ok")
	}))
	resp, err := http.Get("http://" + srv.Addr + "/late-route")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "late ok" {
		t.Fatalf("late-registered route: %s %q", resp.Status, body)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry("bench")
	c := r.Counter("commands")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkCounterParallel(b *testing.B) {
	r := NewRegistry("bench")
	c := r.Counter("commands")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
