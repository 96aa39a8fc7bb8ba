package telemetry

import (
	"context"
	"testing"
)

// hotLoop is the shape of an instrumented pipeline inner loop: one counter
// bump and one histogram observation per item. With nil handles it must
// compile down to two nil checks.
func hotLoop(n int, c *Counter, h *Histogram) {
	for i := 0; i < n; i++ {
		c.Inc()
		h.Observe(int64(i))
	}
}

// TestDisabledTelemetryZeroAllocs is the overhead guard for the no-op
// path: every handle operation on nil (disabled) telemetry must be
// allocation-free.
func TestDisabledTelemetryZeroAllocs(t *testing.T) {
	var r *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	var ring *TraceRing
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(-1)
		h.Observe(42)
		_ = c.Value()
		_ = g.Value()
		_ = h.Count()
		tr.StartSpan("x")()
		_ = tr.ID()
		_ = TraceFromContext(ContextWithTrace(ctx, tr)).Views()
		ring.Add(TraceRecord{})
		hotLoop(64, r.Counter("c"), r.Histogram("h", DurationBuckets))
	}); allocs != 0 {
		t.Fatalf("disabled telemetry allocated %.1f times per run, want 0", allocs)
	}
}

// TestEnabledHotPathZeroAllocs pins the enabled hot path too: atomic
// updates on pre-created handles must not allocate either.
func TestEnabledHotPathZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBuckets)
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Add(1)
		h.Observe(12345)
	}); allocs != 0 {
		t.Fatalf("enabled hot path allocated %.1f times per run, want 0", allocs)
	}
}

func BenchmarkHotLoopDisabled(b *testing.B) {
	var r *Registry
	c, h := r.Counter("c"), r.Histogram("h", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hotLoop(1024, c, h)
	}
}

// BenchmarkHotLoopDisabledTraced is the alloc-guard gate for the
// uninstrumented-but-trace-plumbed path: a request flowing through the
// trace context helpers with tracing disabled (nil trace) must not
// allocate. cmd/benchjson -allocguard asserts 0 allocs/op on this.
func BenchmarkHotLoopDisabledTraced(b *testing.B) {
	var r *Registry
	var tr *Trace
	c, h := r.Counter("c"), r.Histogram("h", DurationBuckets)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jobCtx := ContextWithTrace(ctx, tr)
		end := TraceFromContext(jobCtx).StartSpan("diagnose")
		hotLoop(1024, c, h)
		end()
	}
}

func BenchmarkHotLoopEnabled(b *testing.B) {
	r := New()
	c, h := r.Counter("c"), r.Histogram("h", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hotLoop(1024, c, h)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("c")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("h", DurationBuckets)
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := New()
	for i := 0; i < 32; i++ {
		r.Counter(string(rune('a' + i%26))).Inc()
	}
	r.Histogram("h", DurationBuckets).Observe(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
