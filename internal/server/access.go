package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"netdiag/internal/core"
	"netdiag/internal/telemetry"
)

// Per-request observability: every request entering the v1 surface gets a
// trace ID at the edge (propagated via the ND-Trace-Id header, minted
// when the client sent none), a *telemetry.Trace collecting its phase
// spans across the queue/flight/fork pipeline, one structured access log
// line, and a TraceRecord retained in the /debug/traces ring. The trace
// ID is echoed in the response header of every outcome — success, shed,
// error envelope — and never enters a response body.

// access accumulates one request's observability record while the
// handler runs. The handler goroutine owns every field: queueWait is
// copied from the flight after <-flight.done (the close is the
// happens-before edge), so no field needs an atomic. A handler that
// gives up early (504) logs a deterministic zero wait.
type access struct {
	op          string
	id          string
	tr          *telemetry.Trace
	scenario    string
	algo        string
	shard       string
	coalesced   bool
	leaderTrace string
	queueWait   int64 // nanoseconds from admission to job start
}

// accessKey carries the *access record through the request context so
// the handler and the pipeline underneath it annotate the same record.
type accessKey struct{}

func contextWithAccess(ctx context.Context, a *access) context.Context {
	return context.WithValue(ctx, accessKey{}, a)
}

// accessFrom returns the request's access record. Handlers reached
// without the observe wrapper (direct unit-test invocation) get a
// discardable record, so annotation is always safe.
func accessFrom(ctx context.Context) *access {
	if a, ok := ctx.Value(accessKey{}).(*access); ok {
		return a
	}
	return &access{}
}

// requestTraceID resolves the request's trace ID: a valid propagated
// ND-Trace-Id is kept (so one ID follows the request across the fleet),
// anything else — absent, oversized, bad characters — is replaced by a
// fresh one at this edge.
func requestTraceID(r *http.Request) string {
	if id := r.Header.Get(core.TraceHeader); telemetry.ValidTraceID(id) {
		return id
	}
	return telemetry.NewTraceID()
}

// statusWriter captures the status code a handler answers with, for the
// access log and trace record. Default is 200 (Write without an explicit
// WriteHeader).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// edge is the request-observability state a worker Server and the
// fleet Front share: both are edges, where a request gets its trace ID.
type edge struct {
	log    *slog.Logger
	traces *telemetry.TraceRing
	slowNs int64
}

// newEdge sizes the trace ring (0 selects 64) and keeps the slow-request
// threshold (0 disables promotion).
func newEdge(log *slog.Logger, slow time.Duration, traceBuffer int) edge {
	return edge{log: log, traces: telemetry.NewTraceRing(traceBuffer), slowNs: slow.Nanoseconds()}
}

// observe wraps a handler with the per-request observability envelope:
// trace ID assignment and echo, status capture, the request counter and
// latency histogram (non-nil only for a worker's diagnosis ops), and the
// finishing access log + trace record.
func (e *edge) observe(op string, requests *telemetry.Counter, latency *telemetry.Histogram, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := telemetry.Now()
		requests.Inc()
		acc := &access{op: op, id: requestTraceID(r)}
		acc.tr = telemetry.NewRequestTrace(acc.id)
		w.Header().Set(core.TraceHeader, acc.id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(contextWithAccess(r.Context(), acc)))
		durNs := telemetry.Since(start).Nanoseconds()
		latency.Observe(durNs)
		e.finishAccess(acc, sw.status, durNs)
	})
}

// finishAccess closes out one request: retain its TraceRecord in the
// ring and emit the structured access line. Durations are logged in
// seconds (see telemetry/units.go). A request slower than slowNs (> 0)
// is promoted to a second line carrying the per-phase span breakdown.
func (e *edge) finishAccess(acc *access, status int, durNs int64) {
	rec := telemetry.TraceRecord{
		TraceID:   acc.id,
		Op:        acc.op,
		Scenario:  acc.scenario,
		Algorithm: acc.algo,
		Shard:     acc.shard,
		Status:    status,
		Coalesced: acc.coalesced,
		DurationS: telemetry.Seconds(durNs),
		Spans:     acc.tr.Views(),
	}
	e.traces.Add(rec)
	if e.log == nil {
		return
	}
	attrs := []any{
		"trace", acc.id,
		"op", acc.op,
		"scenario", acc.scenario,
		"algorithm", acc.algo,
		"status", status,
		"coalesced", acc.coalesced,
		"queue_wait_s", telemetry.Seconds(acc.queueWait),
		"duration_s", rec.DurationS,
	}
	if acc.shard != "" {
		attrs = append(attrs, "shard", acc.shard)
	}
	if acc.coalesced && acc.leaderTrace != "" {
		attrs = append(attrs, "leader_trace", acc.leaderTrace)
	}
	e.log.Info("access", attrs...)
	if e.slowNs > 0 && durNs >= e.slowNs {
		e.log.Warn("slow request",
			"trace", acc.id, "op", acc.op, "scenario", acc.scenario,
			"duration_s", rec.DurationS, "spans", rec.Spans)
	}
}

// handleHealthz is the liveness probe of both tiers.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
