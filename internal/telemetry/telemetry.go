// Package telemetry is the stdlib-only observability substrate of the
// pipeline: counters, gauges and fixed-bucket histograms with an atomic,
// allocation-free hot path, per-call phase span traces, and a debug HTTP
// server exposing everything over expvar and pprof.
//
// The package is designed around a no-op default: every handle type
// (*Counter, *Gauge, *Histogram, *Trace) treats a nil receiver as "do
// nothing", and a nil *Registry hands out nil handles. Instrumented code
// therefore never branches on an "enabled" flag — it just calls the
// handle — and a pipeline built without a registry pays nothing (no
// allocations, no atomic traffic, no time syscalls in the hot loops).
// bench_telemetry_test.go pins both properties.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. A nil *Counter is a
// no-op; the zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets defined by inclusive
// upper bounds, plus an implicit overflow bucket. Observe is lock-free and
// allocation-free (a linear scan over the bounds, which are few). A nil
// *Histogram is a no-op.
type Histogram struct {
	bounds     []int64
	counts     []atomic.Int64 // len(bounds)+1, last is overflow
	sum, count atomic.Int64
}

// NewHistogram builds a standalone histogram with the given ascending
// inclusive upper bounds. Most callers use Registry.Histogram instead.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// DurationBuckets are the standard latency bounds in nanoseconds: 1µs to
// 10s, one decade apart. Suitable for queue waits and phase durations.
var DurationBuckets = []int64{
	1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000,
	1_000_000_000, 10_000_000_000,
}

// Registry is a named collection of metrics. Handles are get-or-create by
// name, so independent subsystems asking for the same name share one
// metric. A nil *Registry hands out nil (no-op) handles, which is how
// telemetry is disabled. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	derived  map[string]func(Snapshot) float64
	order    []string // registration order of derived metrics
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		derived:  map[string]func(Snapshot) float64{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls reuse the existing buckets regardless of the
// bounds argument). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Derive registers a metric computed from a snapshot at read time (e.g. a
// cache hit ratio). Re-registering a name replaces the function. No-op on
// a nil registry.
func (r *Registry) Derive(name string, fn func(Snapshot) float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.derived[name]; !ok {
		r.order = append(r.order, name)
	}
	r.derived[name] = fn
}

// Bucket is one histogram bucket of a snapshot. UpperBound is
// math.MaxInt64 for the overflow bucket.
type Bucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of a histogram. Sum and the
// bucket bounds are in the histogram's recorded unit (nanoseconds for
// "_ns"-named duration histograms); SumSeconds/MeanSeconds carry the
// exposition-unit view for duration histograms so /debug/vars and
// /metrics agree on seconds (see units.go).
type HistogramSnapshot struct {
	Count       int64    `json:"count"`
	Sum         int64    `json:"sum"`
	Mean        float64  `json:"mean"`
	SumSeconds  float64  `json:"sum_seconds,omitempty"`
	MeanSeconds float64  `json:"mean_seconds,omitempty"`
	Buckets     []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time view of every metric in a registry. It is
// JSON-marshalable, which is how the debug server exposes it via expvar.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Derived    map[string]float64           `json:"derived,omitempty"`
}

// emptySnapshot is a snapshot with no metrics, maps ready.
func emptySnapshot() Snapshot {
	return Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
}

// Snapshot captures the current value of every metric, then evaluates the
// derived metrics against that base. A nil registry yields a zero
// Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return emptySnapshot()
	}
	s := emptySnapshot()
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	order := append([]string(nil), r.order...)
	derived := make(map[string]func(Snapshot) float64, len(r.derived))
	for n, fn := range r.derived {
		derived[n] = fn
	}
	r.mu.Unlock()

	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		if hs.Count > 0 {
			hs.Mean = float64(hs.Sum) / float64(hs.Count)
		}
		if IsDurationMetric(n) {
			hs.SumSeconds = Seconds(hs.Sum)
			hs.MeanSeconds = hs.Mean / nsPerSecond
		}
		for i := range h.counts {
			ub := int64(math.MaxInt64)
			if i < len(h.bounds) {
				ub = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, Bucket{UpperBound: ub, Count: h.counts[i].Load()})
		}
		s.Histograms[n] = hs
	}
	if len(derived) > 0 {
		s.Derived = map[string]float64{}
		for _, n := range order {
			s.Derived[n] = derived[n](s)
		}
	}
	return s
}

// Ratio is a snapshot helper: a/(a+b), or 0 when both are zero. The usual
// shape of hit-ratio derived metrics.
func Ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}
