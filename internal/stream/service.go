package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"netdiag/internal/core"
)

// maxIngestBytes bounds one ingest request body.
const maxIngestBytes = 32 << 20

// ServiceConfig wires a Service into its host server.
type ServiceConfig struct {
	// Open builds the processor for a scenario on first use (converging
	// the snapshot if needed). Required.
	Open func(ctx context.Context, scenario string) (*Processor, error)
	// Known reports whether the scenario name is registered, so an
	// unknown name 404s without converging anything. Nil means "all
	// names are known".
	Known func(scenario string) bool
	// Draining reports whether the host is shutting down; ingest is
	// then refused with 503. Nil means "never draining".
	Draining func() bool
	Logger   *slog.Logger
}

// procEntry tracks one scenario's processor construction; ready closes
// when p and err are final (the singleflight pattern the snapshot store
// uses).
type procEntry struct {
	ready chan struct{}
	p     *Processor
	err   error
}

// Service is the multi-scenario HTTP face of the streaming plane: it
// owns one lazily built Processor per scenario and implements the
// /v1/ingest/* and /v1/events handlers the host server mounts.
type Service struct {
	cfg ServiceConfig

	mu    sync.Mutex
	procs map[string]*procEntry
}

// NewService builds a service; processors are created lazily per
// scenario via cfg.Open.
func NewService(cfg ServiceConfig) *Service {
	return &Service{cfg: cfg, procs: map[string]*procEntry{}}
}

// Processor returns (building if needed) the named scenario's
// processor. Concurrent calls for the same scenario share one build; a
// failed build is cleared so the next call retries.
func (s *Service) Processor(ctx context.Context, scenario string) (*Processor, error) {
	s.mu.Lock()
	e := s.procs[scenario]
	if e == nil {
		e = &procEntry{ready: make(chan struct{})}
		s.procs[scenario] = e
		go func() {
			// The build runs detached from the requesting context: a
			// processor is shared state, and a client disconnect must
			// not abort the convergence other requests will reuse.
			e.p, e.err = s.cfg.Open(context.WithoutCancel(ctx), scenario)
			if e.err != nil {
				s.mu.Lock()
				delete(s.procs, scenario)
				s.mu.Unlock()
			}
			close(e.ready)
		}()
	}
	s.mu.Unlock()
	select {
	case <-e.ready:
		return e.p, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// peek returns the processor only if it already exists and is ready.
func (s *Service) peek(scenario string) *Processor {
	s.mu.Lock()
	e := s.procs[scenario]
	s.mu.Unlock()
	if e == nil {
		return nil
	}
	select {
	case <-e.ready:
		if e.err == nil {
			return e.p
		}
	default:
	}
	return nil
}

// readyScenarios lists the names with a ready processor, sorted.
func (s *Service) readyScenarios() []string {
	s.mu.Lock()
	names := make([]string, 0, len(s.procs))
	for name := range s.procs {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return names
}

func (s *Service) draining() bool { return s.cfg.Draining != nil && s.cfg.Draining() }

func (s *Service) known(name string) bool { return s.cfg.Known == nil || s.cfg.Known(name) }

// ingestResponse is the body of a successful ingest POST: per-line
// accounting, so a sensor learns how much of its chunk survived
// validation without the stream aborting at the first bad line.
type ingestResponse struct {
	Accepted   int    `json:"accepted"`
	Rejected   int    `json:"rejected"`
	FirstError string `json:"first_error,omitempty"`
}

// HandleIngestTraceroute serves POST /v1/ingest/traceroute?scenario=.
func (s *Service) HandleIngestTraceroute(w http.ResponseWriter, r *http.Request) {
	s.handleIngest(w, r, (*Processor).IngestTraceroute)
}

// HandleIngestBGP serves POST /v1/ingest/bgp?scenario=.
func (s *Service) HandleIngestBGP(w http.ResponseWriter, r *http.Request) {
	s.handleIngest(w, r, (*Processor).IngestBGP)
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request,
	ingest func(p *Processor, body io.Reader) (int, int, error, error)) {
	if s.draining() {
		writeError(w, http.StatusServiceUnavailable, core.ErrDraining, "draining")
		return
	}
	p, ok := s.resolve(w, r)
	if !ok {
		return
	}
	accepted, rejected, firstErr, ioErr := ingest(p, http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if ioErr != nil {
		writeError(w, http.StatusBadRequest, core.ErrBadRequest, "reading body: "+ioErr.Error())
		return
	}
	resp := ingestResponse{Accepted: accepted, Rejected: rejected}
	if firstErr != nil {
		resp.FirstError = firstErr.Error()
	}
	writeJSON(w, resp, s.cfg.Logger)
}

// resolve maps the request's scenario query parameter to its processor,
// writing the error response itself when it cannot.
func (s *Service) resolve(w http.ResponseWriter, r *http.Request) (*Processor, bool) {
	name := r.URL.Query().Get("scenario")
	if name == "" {
		writeError(w, http.StatusBadRequest, core.ErrBadRequest, "missing scenario query parameter")
		return nil, false
	}
	if !s.known(name) {
		writeError(w, http.StatusNotFound, core.ErrNotFound, fmt.Sprintf("unknown scenario %q", name))
		return nil, false
	}
	p, err := s.Processor(r.Context(), name)
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, http.StatusGatewayTimeout, core.ErrTimeout, "request context ended while the scenario warmed")
			return nil, false
		}
		writeError(w, http.StatusInternalServerError, core.ErrInternal, err.Error())
		return nil, false
	}
	return p, true
}

// HandleEvents serves GET /v1/events. With ?scenario= it lists that
// scenario's events; without, it merges the events of every scenario
// that has received any stream, still sorted by (first_ts, id).
func (s *Service) HandleEvents(w http.ResponseWriter, r *http.Request) {
	var evs []*core.WireEvent
	if name := r.URL.Query().Get("scenario"); name != "" {
		if !s.known(name) {
			writeError(w, http.StatusNotFound, core.ErrNotFound, fmt.Sprintf("unknown scenario %q", name))
			return
		}
		if p := s.peek(name); p != nil {
			evs = p.Events()
		}
	} else {
		for _, name := range s.readyScenarios() {
			if p := s.peek(name); p != nil {
				evs = append(evs, p.Events()...)
			}
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].FirstTS != evs[j].FirstTS {
				return evs[i].FirstTS < evs[j].FirstTS
			}
			return evs[i].ID < evs[j].ID
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := core.EncodeWireEvents(w, evs); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Warn("encoding event listing", "err", err)
	}
}

// HandleEvent serves GET /v1/events/{id}: the single event in the same
// rendering as one listing element.
func (s *Service) HandleEvent(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, name := range s.readyScenarios() {
		p := s.peek(name)
		if p == nil {
			continue
		}
		if ev := p.EventByID(id); ev != nil {
			w.Header().Set("Content-Type", "application/json")
			if err := ev.Encode(w); err != nil && s.cfg.Logger != nil {
				s.cfg.Logger.Warn("encoding event", "err", err)
			}
			return
		}
	}
	writeError(w, http.StatusNotFound, core.ErrNotFound, fmt.Sprintf("unknown event %q", id))
}

func writeJSON(w http.ResponseWriter, v any, log *slog.Logger) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil && log != nil {
		log.Warn("encoding stream response", "err", err)
	}
}

// writeError emits the v1 error envelope — the stream package's leg of
// the same seam the server package guards: every error response on the
// streaming surface flows through here, carrying the stable code and
// the Retry-After header on retryable statuses.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	we := core.NewWireError(status, code, msg)
	if we.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(we.RetryAfterS))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(we.Envelope())
}
