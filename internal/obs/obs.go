// Package obs is RABIT's zero-dependency telemetry subsystem: counters,
// gauges, and latency histograms for the interception pipeline, plus
// the views that expose them — an in-process snapshot API and an
// expvar-backed HTTP endpoint with a /metrics text view and pprof.
//
// The paper's Section II-C evaluation measures RABIT's checking overhead
// as a single aggregate; obs decomposes it. Every stage of a check —
// precondition validation, the Extended-Simulator collision sweep, the
// post-state fetch and comparison — is timed by one pair of clock reads
// that feed a fixed-bucket histogram, whose quantiles (p50/p95/p99/max)
// reconstruct the latency table per stage. Counters track commands,
// alerts by kind, violations by rule, and outcomes by device.
//
// Everything on the hot path is lock-free: counters and gauges are single
// atomics and histograms are arrays of atomics. Instrumentation stays
// well under 1% of a check's cost — BenchmarkObsOverhead in
// internal/core proves it. All types tolerate nil receivers, so a
// component built without a registry pays only a predictable branch.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count, updated atomically.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe (0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter (between evaluation runs). Nil-safe.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// Gauge is a point-in-time value, updated atomically.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Nil-safe.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta. Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value. Nil-safe (0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is one component's telemetry namespace: named counters,
// gauges, and histograms. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid "telemetry off" registry:
// every method no-ops or returns nil instruments, which themselves
// no-op.
type Registry struct {
	name string

	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	fams   map[string]*Family
}

// NewRegistry builds an empty registry. The name labels the registry in
// multi-registry sinks (each rabit.System owns one).
func NewRegistry(name string) *Registry {
	return &Registry{
		name:   name,
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		fams:   make(map[string]*Family),
	}
}

// Name returns the registry's label. Nil-safe ("").
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Counter returns the named counter, creating it on first use. Callers on
// hot paths should resolve once and cache the pointer. Nil-safe (nil).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use. Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every counter and histogram and leaves gauges and the
// instrument set intact (cached pointers stay valid) — the engine calls
// this on Start so each experiment run measures from zero. Nil-safe.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counts {
		c.Reset()
	}
	for _, h := range r.hists {
		h.Reset()
	}
	for _, f := range r.fams {
		f.Reset()
	}
}

// ResetPrefix zeroes every counter whose name starts with prefix —
// instrument families keyed by a dynamic component (alerts.*,
// violations.*) that a fresh run must not inherit from the previous one.
// Nil-safe.
func (r *Registry) ResetPrefix(prefix string) {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counts {
		if strings.HasPrefix(name, prefix) {
			c.Reset()
		}
	}
}

// CounterSnapshot is one counter's state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's state.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a consistent-enough point-in-time copy of a registry: the
// in-process introspection API behind /debug/vars and /metrics.
type Snapshot struct {
	Name       string              `json:"name"`
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	Families   []FamilySnapshot    `json:"families,omitempty"`
}

// Counter finds a counter value in the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge finds a gauge value in the snapshot (0 when absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram finds a histogram summary in the snapshot.
func (s Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// Snapshot captures all instruments, sorted by name. Nil-safe (zero
// snapshot).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := Snapshot{Name: r.name}
	for name, c := range r.counts {
		out.Counters = append(out.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		out.Gauges = append(out.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		out.Histograms = append(out.Histograms, h.snapshot(name))
	}
	for _, f := range r.fams {
		out.Families = append(out.Families, f.snapshot())
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	sort.Slice(out.Families, func(i, j int) bool { return out.Families[i].Name < out.Families[j].Name })
	return out
}
