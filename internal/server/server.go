package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"netdiag/internal/core"
	"netdiag/internal/pool"
	"netdiag/internal/stream"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// errDraining is returned for work refused because the server is
// shutting down; it surfaces as HTTP 503.
var errDraining = errors.New("server: draining")

// Config parameterizes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Scenarios is the scenario registry; nil selects BuiltinRegistry().
	Scenarios *Registry
	// Parallelism bounds the workers each diagnosis and simulation phase
	// uses (<= 0 selects GOMAXPROCS). It never changes results.
	Parallelism int
	// Workers is the number of concurrent diagnosis computations (<= 0
	// selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds the jobs waiting beyond the executing ones; a
	// request arriving with the queue full is shed with HTTP 429. Zero
	// selects 16; negative means no waiting room at all.
	QueueDepth int
	// RequestTimeout caps one diagnosis computation (and is the upper
	// bound for per-request timeout_ms). Zero selects 30s.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain on shutdown. Zero selects 10s.
	DrainTimeout time.Duration
	// SnapshotDir, when non-empty, persists converged scenarios as
	// snapshot files (one per scenario) and recovers them at warm-up, so
	// a restarted or newly added worker skips SPF and the BGP fixpoint.
	// Empty disables persistence.
	SnapshotDir string
	// Telemetry receives the server, queue and pipeline metrics; nil
	// disables them (and never changes results).
	Telemetry *telemetry.Registry
	// Logger receives structured request/lifecycle records; nil logs
	// nothing.
	Logger *slog.Logger
	// SlowThreshold promotes requests at least this slow to an extra
	// access-log line carrying the per-phase span breakdown. Zero
	// disables promotion.
	SlowThreshold time.Duration
	// TraceBuffer sizes the /debug/traces ring of completed request
	// traces. Zero selects 64.
	TraceBuffer int
	// Ingest enables the streaming diagnosis plane: the POST
	// /v1/ingest/* endpoints, the per-scenario delta mesh processors and
	// the GET /v1/events surface.
	Ingest bool
	// EventWindow is the streaming correlation window in record time
	// (an observation joins an event when it lands within this span of
	// the event's last observation and shares a suspect link or AS).
	// Zero selects 2s.
	EventWindow time.Duration
	// EventIdleClose closes a streaming event once record time advances
	// this far past its last observation. Zero selects 5s.
	EventIdleClose time.Duration
}

// Server is the long-running diagnosis service behind ndserve. It owns
// the warm snapshot store, the coalescing group and the bounded admission
// queue; Handler exposes the HTTP API and Serve runs the full lifecycle
// including graceful drain.
type Server struct {
	reg            *Registry
	store          *Store
	queue          *pool.Queue
	flights        *flightGroup
	par            int
	requestTimeout time.Duration
	drainTimeout   time.Duration
	tele           *telemetry.Registry
	log            *slog.Logger
	traces         *telemetry.TraceRing
	slowNs         int64
	mux            *http.ServeMux

	// Streaming plane (nil unless Config.Ingest).
	streamSvc        *stream.Service
	eventWindowMS    int64
	eventIdleCloseMS int64

	// lifeCtx scopes every computation to the server's lifetime, so an
	// individual client disconnect never cancels a coalesced computation
	// other clients are waiting on. It is cancelled at the end of drain.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	draining   atomic.Bool
	ready      atomic.Bool

	requests *telemetry.Counter
	shed     *telemetry.Counter
	latency  *telemetry.Histogram

	// testJobStart, when set by tests, runs at the start of every queued
	// job — the seam deterministic coalescing/shedding/drain tests use to
	// hold a worker busy.
	testJobStart func()
}

// New builds a server from cfg. The scenario snapshots are converged
// lazily (or eagerly via WarmAll / Serve); New itself is cheap.
func New(cfg Config) *Server {
	if cfg.Scenarios == nil {
		cfg.Scenarios = BuiltinRegistry()
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	} else if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	s := &Server{
		reg:            cfg.Scenarios,
		store:          NewStore(cfg.Scenarios, cfg.Parallelism, cfg.SnapshotDir, cfg.Telemetry),
		queue:          pool.NewQueue(cfg.Workers, cfg.QueueDepth, cfg.Telemetry),
		flights:        newFlightGroup(cfg.Telemetry),
		par:            cfg.Parallelism,
		requestTimeout: cfg.RequestTimeout,
		drainTimeout:   cfg.DrainTimeout,
		tele:           cfg.Telemetry,
		log:            cfg.Logger,
		traces:         telemetry.NewTraceRing(cfg.TraceBuffer),
		slowNs:         cfg.SlowThreshold.Nanoseconds(),
		requests:       cfg.Telemetry.Counter("server.requests_total"),
		shed:           cfg.Telemetry.Counter("server.requests_shed"),
		latency:        cfg.Telemetry.Histogram("server.request_ns", telemetry.DurationBuckets),
	}
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())
	cfg.Telemetry.Derive("server.coalesce_hit_ratio", func(snap telemetry.Snapshot) float64 {
		return telemetry.Ratio(snap.Counters["server.coalesce_hits"], snap.Counters["server.coalesce_misses"])
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /v1/scenarios", s.observe("scenarios", false, s.handleScenarios))
	mux.Handle("POST /v1/diagnose", s.observe("diagnose", true, s.handleDiagnose))
	mux.Handle("POST /v1/diagnose/batch", s.observe("batch", true, s.handleDiagnoseBatch))
	mux.Handle("GET /metrics", telemetry.PromHandler(cfg.Telemetry))
	mux.Handle("GET /debug/traces", s.traces)
	if cfg.Ingest {
		s.eventWindowMS = cfg.EventWindow.Milliseconds()
		s.eventIdleCloseMS = cfg.EventIdleClose.Milliseconds()
		s.streamSvc = s.newStreamService()
		mux.Handle("POST /v1/ingest/traceroute", s.observe("ingest_traceroute", false, s.streamSvc.HandleIngestTraceroute))
		mux.Handle("POST /v1/ingest/bgp", s.observe("ingest_bgp", false, s.streamSvc.HandleIngestBGP))
		mux.Handle("GET /v1/events", s.observe("events", false, s.streamSvc.HandleEvents))
		mux.Handle("GET /v1/events/{id}", s.observe("event", false, s.streamSvc.HandleEvent))
	}
	s.mux = mux
	return s
}

// Handler returns the HTTP API. Lifecycle (warm-up, drain) is the
// caller's concern when serving this directly; Serve handles both.
func (s *Server) Handler() http.Handler { return s.mux }

// WarmAll eagerly converges every registered scenario (see Store.WarmAll)
// and marks the server ready.
func (s *Server) WarmAll(ctx context.Context) error {
	if err := s.store.WarmAll(ctx); err != nil {
		return err
	}
	s.ready.Store(true)
	return nil
}

// Serve runs the server on ln until ctx is cancelled, then drains
// gracefully: new and queued requests get 503, in-flight diagnoses run to
// completion, and the whole drain is bounded by Config.DrainTimeout —
// when it expires, remaining computations are cancelled. Scenario warm-up
// runs in the background; /readyz flips to 200 when it finishes.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		if err := s.WarmAll(ctx); err != nil && s.log != nil {
			s.log.Warn("scenario warm-up failed", "err", err)
		}
	}()
	srv := &http.Server{Handler: s.mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.drainTimeout)
	defer cancel()
	err := s.drain(dctx, srv)
	<-serveErr // always http.ErrServerClosed after Shutdown
	if err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	return nil
}

// drain performs the graceful shutdown sequence: stop admitting work,
// close the listener, wait (bounded by ctx) for in-flight handlers, then
// cancel whatever is still computing and retire the queue workers.
func (s *Server) drain(ctx context.Context, srv *http.Server) error {
	s.draining.Store(true)
	s.ready.Store(false)
	err := srv.Shutdown(ctx)
	s.lifeCancel()
	// Close drains jobs already accepted by the queue; they observe
	// draining (or the cancelled lifeCtx) and finish immediately. Run it
	// off this goroutine so a job stuck past lifeCancel cannot wedge the
	// drain itself.
	go s.queue.Close()
	return err
}

// Close force-stops the server's computations without the graceful
// sequence; it is the test/teardown counterpart of Serve's drain.
func (s *Server) Close() {
	s.draining.Store(true)
	s.lifeCancel()
	go s.queue.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		//ndlint:ignore envelope /readyz is a plain-text probe endpoint for load balancers, not part of the v1 JSON surface; the envelope seam does not apply
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case !s.ready.Load():
		//ndlint:ignore envelope /readyz is a plain-text probe endpoint for load balancers, not part of the v1 JSON surface; the envelope seam does not apply
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "warming")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// ScenarioInfo is one row of the GET /v1/scenarios listing.
type ScenarioInfo struct {
	Name    string       `json:"name"`
	Sensors int          `json:"sensors"`
	Routers int          `json:"routers"`
	ASes    int          `json:"ases"`
	ASX     topology.ASN `json:"asx"`
	Warm    bool         `json:"warm"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var infos []ScenarioInfo
	for _, name := range s.reg.Names() {
		scn, err := s.reg.Get(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, core.ErrInternal, err.Error())
			return
		}
		infos = append(infos, ScenarioInfo{
			Name:    name,
			Sensors: len(scn.Sensors),
			Routers: scn.Topo.NumRouters(),
			ASes:    len(scn.Topo.ASNumbers()),
			ASX:     scn.ASX,
			Warm:    s.store.IsWarm(name),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(infos); err != nil && s.log != nil {
		s.log.Warn("encoding scenario listing", "err", err)
	}
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, core.ErrDraining, "draining")
		return
	}
	var req DiagnoseRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, core.ErrBadRequest, "invalid request body: "+err.Error())
		return
	}
	algo, err := parseAlgo(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, core.ErrBadRequest, err.Error())
		return
	}
	if !s.reg.Has(req.Scenario) {
		writeError(w, http.StatusNotFound, core.ErrNotFound, fmt.Sprintf("unknown scenario %q", req.Scenario))
		return
	}
	acc := accessFrom(r.Context())
	acc.scenario, acc.algo = req.Scenario, algo.Slug()
	key := canonicalKey(req.Scenario, algo, req.FailLinks, req.FailRouters)
	s.serveQueued(w, r, acc, key, req.TimeoutMS, func(ctx context.Context) ([]byte, error) {
		return s.compute(ctx, &req, algo)
	})
}

// serveQueued is the shared tail of the diagnosis handlers: it hands the
// validated request to enqueue, capping the computation at timeoutMS
// when that is below the server's request timeout, and writes the
// outcome — 429 when the queue sheds it, 504 when the client leaves
// before the flight completes, otherwise the flight's error envelope or
// body. A follower of a coalesced flight times its wait as the
// coalesce_wait span.
func (s *Server) serveQueued(w http.ResponseWriter, r *http.Request, acc *access, key string,
	timeoutMS int64, compute func(context.Context) ([]byte, error)) {
	timeout := s.requestTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	f, leader, ok := s.enqueue(key, acc.tr, timeout, compute)
	if !ok {
		writeError(w, http.StatusTooManyRequests, core.ErrQueueFull, "diagnosis queue full")
		return
	}
	acc.coalesced, acc.leaderTrace = !leader, f.leaderTrace
	endAttach := noSpan
	if !leader {
		endAttach = acc.tr.StartSpan("coalesce_wait")
	}
	select {
	case <-f.done:
		endAttach()
	case <-r.Context().Done():
		endAttach()
		writeError(w, http.StatusGatewayTimeout, core.ErrTimeout, "request context ended while waiting for diagnosis")
		return
	}
	acc.queueWait = f.queueWaitNs
	if f.err != nil {
		status, code := statusFor(f.err)
		writeError(w, status, code, f.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(f.body); err != nil && s.log != nil {
		s.log.Warn("writing diagnosis response", "op", acc.op, "err", err)
	}
}

// enqueue is the one hand-off from a diagnosis request or a closed
// stream event to the coalescing group and the admission queue. key is
// the flight's coalescing identity; tr is the caller's trace, kept as
// the flight's leader trace and handed to compute on its context. ok is
// false when the queue shed the job, which enqueue has already counted.
func (s *Server) enqueue(key string, tr *telemetry.Trace, timeout time.Duration,
	compute func(context.Context) ([]byte, error)) (f *flight, leader, ok bool) {
	endWait := tr.StartSpan("admission_wait")
	f, leader, ok = s.flights.do(key, tr.ID(), s.queue.TrySubmit, func() ([]byte, error) {
		endWait()
		// A job that reaches a worker only after the drain began is
		// "queued work" in the shutdown contract: reject it. The hook
		// below stands in for a long computation in tests.
		if s.draining.Load() {
			return nil, errDraining
		}
		if s.testJobStart != nil {
			s.testJobStart()
		}
		// The computation runs under the server's lifetime context plus
		// the (leader's) timeout, never an individual request context:
		// coalesced followers must not lose the result because the leader
		// disconnected. The leader's trace rides along so pipeline spans
		// land on it.
		ctx, cancel := context.WithTimeout(s.lifeCtx, timeout)
		defer cancel()
		return compute(telemetry.ContextWithTrace(ctx, tr))
	})
	if !ok {
		s.shed.Inc()
	}
	return f, leader, ok
}

// statusFor maps computation errors to an HTTP status and wire error code.
func statusFor(err error) (int, string) {
	var re *requestError
	switch {
	case errors.As(err, &re):
		if re.status == http.StatusNotFound {
			return re.status, core.ErrNotFound
		}
		return re.status, core.ErrBadRequest
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, core.ErrDraining
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, core.ErrTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, core.ErrCanceled
	default:
		return http.StatusInternalServerError, core.ErrInternal
	}
}

// noSpan is the no-op span end for paths that conditionally open one.
var noSpan = func() {}

// errorEnvelope builds the WireError a status/code/message triple puts on
// the wire (core.NewWireError holds the retry rule), for writeError and
// for the error slots of a batch response.
func errorEnvelope(status int, code, msg string) *core.WireError {
	return core.NewWireError(status, code, msg)
}

// writeError emits the v1 error envelope. The retryable statuses get a
// Retry-After header matching the envelope's retry_after_s.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	we := errorEnvelope(status, code, msg)
	if we.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(we.RetryAfterS))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(we.Envelope())
}
