package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"

	"netdiag"
	"netdiag/internal/core"
	"netdiag/internal/probe"
	"netdiag/internal/stream"
	"netdiag/internal/telemetry"
)

// The streaming plane: one stream.Processor per scenario (journal, a
// network fork and its current mesh, event correlation), built by
// StreamProcessor over the scenario's warm snapshot, behind the POST
// /v1/ingest/* and GET /v1/events handlers. Closed events are diagnosed
// through enqueue, the same admission queue, coalescing group and
// telemetry as the HTTP diagnosis requests.

// maxIngestBytes bounds one ingest request body.
const maxIngestBytes = 32 << 20

// StreamProcessor returns the streaming processor of a registered
// scenario, building it on first use over the warm snapshot, whose
// healthy network the processor forks. The snapshot's convergence is the
// Store's one shared build; the processor is built under procMu, so
// concurrent first calls return the same processor. It errors when the server was built without
// Config.Ingest.
func (s *Server) StreamProcessor(ctx context.Context, name string) (*stream.Processor, error) {
	if s.procs == nil {
		return nil, fmt.Errorf("server: streaming ingestion disabled (Config.Ingest)")
	}
	if !s.reg.Has(name) {
		return nil, fmt.Errorf("server: unknown scenario %q", name)
	}
	snap, err := s.store.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	s.procMu.Lock()
	defer s.procMu.Unlock()
	if p := s.procs[name]; p != nil {
		return p, nil
	}
	p := stream.NewProcessor(stream.Config{
		View: stream.View{
			Scenario: name,
			Topo:     snap.Scenario.Topo,
			Sensors:  snap.Scenario.Sensors,
			Baseline: snap.BeforeMesh,
			Net:      snap.Net,
			Router:   snap.Router,
		},
		WindowMS:    s.eventWindowMS,
		IdleCloseMS: s.eventIdleCloseMS,
		Diagnose:    s.streamDiagnoser(name),
		Life:        s.lifeCtx,
		Telemetry:   s.tele,
		Logger:      s.log,
	})
	s.procs[name] = p
	return p, nil
}

// processor returns the scenario's processor, or nil before a feed (or
// a StreamProcessor call) has built it.
func (s *Server) processor(name string) *stream.Processor {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	return s.procs[name]
}

// streamDiagnoser adapts one scenario's closed events onto enqueue. The
// flight key is the event ID, so a re-closed event (journal reset)
// coalesces with its own in-flight diagnosis instead of recomputing; the
// event ID is also the trace ID, keeping replayed runs byte-identical
// with tracing on or off. A shed reports retry=true and the processor
// parks the event as pending.
func (s *Server) streamDiagnoser(scenarioName string) stream.Diagnoser {
	return func(eventID string, _, tplus *probe.Mesh) ([]byte, bool, error) {
		if s.draining.Load() {
			return nil, false, errDraining
		}
		key := "event|" + scenarioName + "|" + netdiag.NDEdgeAlgo.Slug() + "|" + eventID
		f, _, ok := s.enqueue(key, telemetry.NewRequestTrace(eventID), s.requestTimeout,
			func(ctx context.Context) ([]byte, error) {
				return s.diagnoseEvent(ctx, scenarioName, tplus)
			})
		if !ok {
			return nil, true, nil
		}
		select {
		case <-f.done:
			return f.body, false, f.err
		case <-s.lifeCtx.Done():
			return nil, false, s.lifeCtx.Err()
		}
	}
}

// diagnoseEvent runs ND-edge on a closed event's failed (T+) mesh against
// the scenario's healthy T−, the snapshot's BeforeMesh, which is the
// processor's View.Baseline and so every event's T−. No fault is
// injected: the failure is already in the measurements, so the
// control-plane feeds of nd-bgpigp and nd-lg do not apply.
func (s *Server) diagnoseEvent(ctx context.Context, scenarioName string, tplus *probe.Mesh) ([]byte, error) {
	snap, err := s.store.Get(ctx, scenarioName)
	if err != nil {
		return nil, err
	}
	tr := telemetry.TraceFromContext(ctx)
	endSpan := tr.StartSpan("adapt")
	meas := snap.MeasurementsAfter(tplus)
	endSpan()
	endSpan = tr.StartSpan("diagnose")
	res, err := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDEdgeAlgo),
		netdiag.WithParallelism(s.par),
		netdiag.WithTelemetry(s.tele),
	).Diagnose(ctx, meas)
	endSpan()
	if err != nil {
		return nil, err
	}
	return encodeWire(res, netdiag.NDEdgeAlgo)
}

// ingestResponse is the body of a successful ingest POST: per-line
// accounting, so a sensor learns how much of its chunk survived
// validation without the stream aborting at the first bad line.
type ingestResponse struct {
	Accepted   int    `json:"accepted"`
	Rejected   int    `json:"rejected"`
	FirstError string `json:"first_error,omitempty"`
}

// handleIngest serves POST /v1/ingest/{traceroute,bgp}?scenario=: ingest
// is the processor method that consumes the endpoint's NDJSON body.
func (s *Server) handleIngest(ingest func(p *stream.Processor, body io.Reader) (int, int, error, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, core.ErrDraining, "draining")
			return
		}
		name := r.URL.Query().Get("scenario")
		if name == "" {
			writeError(w, http.StatusBadRequest, core.ErrBadRequest, "missing scenario query parameter")
			return
		}
		if !s.reg.Has(name) {
			writeError(w, http.StatusNotFound, core.ErrNotFound, fmt.Sprintf("unknown scenario %q", name))
			return
		}
		p, err := s.StreamProcessor(r.Context(), name)
		if err != nil {
			if r.Context().Err() != nil {
				writeError(w, http.StatusGatewayTimeout, core.ErrTimeout, "request context ended while the scenario warmed")
				return
			}
			writeError(w, http.StatusInternalServerError, core.ErrInternal, err.Error())
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
		writeJSON(w, s.log, "ingest response", resp)
	}
}

// handleEvents serves GET /v1/events. With ?scenario= it lists that
// scenario's events ([] until a feed reaches it); without, it merges the
// events of every scenario with a processor, still sorted by (first_ts,
// id).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var names []string
	if name := r.URL.Query().Get("scenario"); name == "" {
		names = s.reg.Names()
	} else if s.reg.Has(name) {
		names = []string{name}
	} else {
		writeError(w, http.StatusNotFound, core.ErrNotFound, fmt.Sprintf("unknown scenario %q", name))
		return
	}
	var evs []*core.WireEvent
	for _, name := range names {
		if p := s.processor(name); p != nil {
			evs = append(evs, p.Events()...)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].FirstTS != evs[j].FirstTS {
			return evs[i].FirstTS < evs[j].FirstTS
		}
		return evs[i].ID < evs[j].ID
	})
	w.Header().Set("Content-Type", "application/json")
	if err := core.EncodeWireEvents(w, evs); err != nil && s.log != nil {
		s.log.Warn("encoding event listing", "err", err)
	}
}

// handleEvent serves GET /v1/events/{id}: the single event in the same
// rendering as one listing element.
func (s *Server) handleEvent(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, name := range s.reg.Names() {
		p := s.processor(name)
		if p == nil {
			continue
		}
		if ev := p.EventByID(id); ev != nil {
			w.Header().Set("Content-Type", "application/json")
			if err := ev.Encode(w); err != nil && s.log != nil {
				s.log.Warn("encoding event", "err", err)
			}
			return
		}
	}
	writeError(w, http.StatusNotFound, core.ErrNotFound, fmt.Sprintf("unknown event %q", id))
}
