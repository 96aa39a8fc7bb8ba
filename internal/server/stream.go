package server

import (
	"context"
	"fmt"

	"netdiag"
	"netdiag/internal/experiment"
	"netdiag/internal/probe"
	"netdiag/internal/stream"
	"netdiag/internal/telemetry"
)

// Streaming-plane wiring: the stream.Service owns the per-scenario
// processors (journal, delta overlay, event correlation); the server
// contributes the warm snapshots they fork from and the diagnosis
// callback that routes closed events through enqueue, the same admission
// queue, coalescing group and telemetry as the HTTP diagnosis requests.

// newStreamService builds the streaming facade over this server's
// snapshot store.
func (s *Server) newStreamService() *stream.Service {
	return stream.NewService(stream.ServiceConfig{
		Open:     s.openStreamProcessor,
		Known:    s.reg.Has,
		Draining: s.draining.Load,
		Logger:   s.log,
	})
}

// openStreamProcessor converges (or reuses) the scenario snapshot and
// builds its streaming processor over a private fork.
func (s *Server) openStreamProcessor(ctx context.Context, name string) (*stream.Processor, error) {
	snap, err := s.store.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	return stream.NewProcessor(stream.Config{
		View: stream.View{
			Scenario: name,
			Topo:     snap.Scenario.Topo,
			Sensors:  snap.Scenario.Sensors,
			Prefixes: snap.Prefixes,
			Baseline: snap.BeforeMesh,
			Net:      snap.Net.Fork(),
			Router:   snap.Router,
			Workers:  s.par,
		},
		WindowMS:    s.eventWindowMS,
		IdleCloseMS: s.eventIdleCloseMS,
		Diagnose:    s.streamDiagnoser(name),
		Life:        s.lifeCtx,
		Telemetry:   s.tele,
		Logger:      s.log,
	}), nil
}

// streamDiagnoser adapts one scenario's closed events onto enqueue. The
// flight key is the event ID, so a re-closed event (journal reset)
// coalesces with its own in-flight diagnosis instead of recomputing; the
// event ID is also the trace ID, keeping replayed runs byte-identical
// with tracing on or off. A shed reports retry=true and the processor
// parks the event as pending.
func (s *Server) streamDiagnoser(scenarioName string) stream.Diagnoser {
	return func(eventID string, tminus, tplus *probe.Mesh) ([]byte, bool, error) {
		if s.draining.Load() {
			return nil, false, errDraining
		}
		key := "event|" + scenarioName + "|" + netdiag.NDEdgeAlgo.Slug() + "|" + eventID
		f, _, ok := s.enqueue(key, telemetry.NewRequestTrace(eventID), s.requestTimeout,
			func(ctx context.Context) ([]byte, error) {
				return s.diagnoseEvent(ctx, scenarioName, tminus, tplus)
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

// diagnoseEvent runs ND-edge on a closed event's healthy (T−) and failed
// (T+) meshes. No fault is injected: the failure is already in the
// measurements, so the control-plane feeds of nd-bgpigp and nd-lg do not
// apply.
func (s *Server) diagnoseEvent(ctx context.Context, scenarioName string, tminus, tplus *probe.Mesh) ([]byte, error) {
	snap, err := s.store.Get(ctx, scenarioName)
	if err != nil {
		return nil, err
	}
	meas := experiment.ToMeasurementsMapped(tminus, tplus, snap.IP2AS.Lookup)
	res, err := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDEdgeAlgo),
		netdiag.WithParallelism(s.par),
		netdiag.WithTelemetry(s.tele),
	).Diagnose(ctx, meas)
	if err != nil {
		return nil, err
	}
	return encodeWire(res, netdiag.NDEdgeAlgo)
}

// StreamProcessor returns (building on first use) the streaming
// processor for a registered scenario. It errors when the server was
// built without Config.Ingest.
func (s *Server) StreamProcessor(ctx context.Context, name string) (*stream.Processor, error) {
	if s.streamSvc == nil {
		return nil, fmt.Errorf("server: streaming ingestion disabled (Config.Ingest)")
	}
	if !s.reg.Has(name) {
		return nil, fmt.Errorf("server: unknown scenario %q", name)
	}
	return s.streamSvc.Processor(ctx, name)
}
