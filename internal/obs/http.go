package obs

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Package-level shims over DefaultGroup: rabit.System registers its
// registry here by default so the CLIs' -metrics endpoint sees it
// without extra plumbing. Multi-system services build their own Group.

// Register adds a registry to the default scrape group. Nil-safe.
func Register(r *Registry) { DefaultGroup.Register(r) }

// Unregister removes a registry from the default scrape group.
func Unregister(r *Registry) { DefaultGroup.Unregister(r) }

// Snapshots captures every registry in the default group.
func Snapshots() []Snapshot { return DefaultGroup.Snapshots() }

var publishOnce sync.Once

// Auxiliary routes: subpackages (internal/obs/trace's /traces) add
// endpoints to the introspection mux without obs importing them. The
// route table is package-wide — the handlers themselves are stateless
// route definitions — and every Group's Handler mounts it.
var (
	auxMu     sync.RWMutex
	auxRoutes = map[string]http.Handler{}
)

// RegisterHTTPHandler mounts a handler on the introspection mux under
// pattern (e.g. "/traces"). Later registrations for the same pattern
// replace earlier ones; core routes (/metrics, /healthz, …) cannot be
// replaced. Intended for obs subpackages, which would otherwise need an
// import cycle to extend Handler.
func RegisterHTTPHandler(pattern string, h http.Handler) {
	auxMu.Lock()
	defer auxMu.Unlock()
	auxRoutes[pattern] = h
}

// publishExpvar exposes the default scrape group as the expvar "rabit"
// variable, once per process (expvar panics on duplicate names).
func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("rabit", expvar.Func(func() any { return Snapshots() }))
	})
}

// Handler returns the default group's introspection mux.
func Handler() http.Handler { return DefaultGroup.Handler() }

// Handler returns the group's introspection mux: /debug/vars (expvar,
// including the default group's "rabit" snapshot tree), /metrics (a flat
// text rendering of this group), /metrics/prom (Prometheus exposition),
// /healthz and /readyz (this group's components), any auxiliary routes
// subpackages registered (e.g. /traces), and /debug/pprof (live
// profiling). Each call builds a fresh mux, so two groups' handlers
// never share route state.
func (g *Group) Handler() http.Handler {
	publishExpvar()
	mux := http.NewServeMux()
	core := map[string]bool{
		"/debug/vars": true, "/metrics": true, "/metrics/prom": true,
		"/healthz": true, "/readyz": true, "/buildz": true, "/debug/pprof/": true,
		"/debug/pprof/cmdline": true, "/debug/pprof/profile": true,
		"/debug/pprof/symbol": true, "/debug/pprof/trace": true,
	}
	auxMu.RLock()
	for pattern, h := range auxRoutes {
		if !core[pattern] {
			mux.Handle(pattern, h)
		}
	}
	auxMu.RUnlock()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", g.metricsText)
	mux.HandleFunc("/metrics/prom", g.promMetricsText)
	mux.HandleFunc("/healthz", g.healthzHandler)
	mux.HandleFunc("/readyz", g.readyzHandler)
	mux.HandleFunc("/buildz", buildzHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// metricsText renders every registered registry in a flat
// `name{reg="…"} value` text form, one line per counter/gauge and a
// summary block per histogram — enough for curl and for scrape tooling
// that speaks the common text exposition idiom. Label values are
// escaped per that format (escapeLabel), not Go-quoted.
func (g *Group) metricsText(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	summary := func(n, lbl string, h HistogramSnapshot) {
		fmt.Fprintf(w, "rabit_%s_count{%s} %d\n", n, lbl, h.Count)
		fmt.Fprintf(w, "rabit_%s_sum_ns{%s} %d\n", n, lbl, h.SumNS)
		fmt.Fprintf(w, "rabit_%s_ns{%s,q=\"0.5\"} %d\n", n, lbl, h.P50NS)
		fmt.Fprintf(w, "rabit_%s_ns{%s,q=\"0.95\"} %d\n", n, lbl, h.P95NS)
		fmt.Fprintf(w, "rabit_%s_ns{%s,q=\"0.99\"} %d\n", n, lbl, h.P99NS)
		fmt.Fprintf(w, "rabit_%s_ns{%s,q=\"max\"} %d\n", n, lbl, h.MaxNS)
	}
	for _, s := range g.Snapshots() {
		reg := "reg=\"" + escapeLabel(s.Name) + "\""
		for _, c := range s.Counters {
			fmt.Fprintf(w, "rabit_%s{%s} %d\n", sanitize(c.Name), reg, c.Value)
		}
		for _, gg := range s.Gauges {
			fmt.Fprintf(w, "rabit_%s{%s} %d\n", sanitize(gg.Name), reg, gg.Value)
		}
		for _, h := range s.Histograms {
			n := sanitize(h.Name)
			summary(n, reg, h)
			for _, b := range h.Buckets {
				le := "+Inf"
				if b.UpperNS > 0 {
					le = fmt.Sprintf("%d", b.UpperNS)
				}
				fmt.Fprintf(w, "rabit_%s_bucket{%s,le=\"%s\"} %d\n", n, reg, le, b.Cumulative)
			}
		}
		for _, f := range s.Families {
			n := sanitize(f.Name)
			key := sanitize(f.Key)
			label := func(v string) string { return fmt.Sprintf("%s,%s=\"%s\"", reg, key, escapeLabel(v)) }
			for _, c := range f.Counters {
				fmt.Fprintf(w, "rabit_%s{%s} %d\n", n, label(c.Name), c.Value)
			}
			for _, gg := range f.Gauges {
				fmt.Fprintf(w, "rabit_%s{%s} %d\n", n, label(gg.Name), gg.Value)
			}
			for _, h := range f.Histograms {
				summary(n, label(h.Name), h)
			}
		}
	}
}

// sanitize maps instrument names onto the metric-name alphabet
// ([a-zA-Z0-9_]): dots and dashes become underscores.
func sanitize(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// Server is a running introspection endpoint with a graceful shutdown
// path: Close/Shutdown stop the listener, drain in-flight requests, and
// wait for the serve goroutine to exit, so tests and the CLIs never
// leak the listener or race its teardown. A Serve failure (listener
// torn down under the server, accept loop dying) is latched — Err
// returns it — and surfaces through the owning group's "obs_server"
// health component, so /readyz degrades instead of the endpoint
// silently going dark.
type Server struct {
	// Addr is the bound address (useful with ":0" listeners).
	Addr string

	srv  *http.Server
	ln   net.Listener
	done chan struct{}

	mu       sync.Mutex
	serveErr error
	health   *HealthReg
}

// Err returns the latched srv.Serve error, if the serve loop died for
// any reason other than a clean Shutdown/Close. Nil-safe.
func (s *Server) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serveErr
}

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drain until ctx expires, and the serve goroutine has exited
// by the time it returns. The health component is withdrawn — an
// intentionally closed endpoint is not a degraded one. Nil-safe;
// idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	s.health.Unregister()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// Close is Shutdown with a bounded drain (5s), for defer-friendly
// teardown. Nil-safe; idempotent.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// Serve starts the default group's introspection endpoint on addr.
func Serve(addr string) (*Server, error) {
	return DefaultGroup.Serve(addr)
}

// Serve starts the group's introspection endpoint on addr (e.g.
// "localhost:6060") in a background goroutine and returns the bound
// server. Callers shut it down with Close (bounded) or Shutdown
// (caller's context). Any serve-loop failure is latched on the Server
// and reported by the group's "obs_server" health component.
//
// The route table is resolved per request, not snapshotted at listen
// time: CLI modes register auxiliary routes (rabiteval's /campaign)
// after the flag-driven server is already listening, and a mux built
// once here would 404 them forever.
func (g *Group) Serve(addr string) (*Server, error) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.Handler().ServeHTTP(w, r)
	})
	return g.ServeHandler(addr, h)
}

// ServeHandler is Serve with a caller-supplied handler — services (the
// gateway) that mount their own API routes alongside the group's
// introspection routes get the same listener lifecycle, error latch,
// and health surfacing without re-implementing the serve plumbing.
func (g *Group) ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: h}
	s := &Server{Addr: srv.Addr, srv: srv, ln: ln, done: make(chan struct{})}
	s.health = g.RegisterHealth("obs_server", func() Health {
		if err := s.Err(); err != nil {
			return Health{Detail: "serve: " + err.Error()}
		}
		return Health{OK: true, Ready: true}
	})
	go func() {
		defer close(s.done)
		// ErrServerClosed after Shutdown is the expected exit; anything
		// else is a real failure — latch it for Err and the health
		// component instead of discarding it.
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.mu.Lock()
			s.serveErr = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}
