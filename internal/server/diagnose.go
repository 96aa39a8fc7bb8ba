package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"

	"netdiag"
	"netdiag/internal/experiment"
	"netdiag/internal/netsim"
	"netdiag/internal/telemetry"
)

// DiagnoseRequest is the POST /v1/diagnose body: a registered scenario, a
// failure set to inject into a fork of its warm snapshot, and the
// algorithm to run on the resulting measurements. Router references are
// topology router names (or numeric router IDs).
type DiagnoseRequest struct {
	Scenario string `json:"scenario"`
	// Algorithm is a netdiag.ParseAlgorithm name; empty means "tomo".
	Algorithm string `json:"algorithm,omitempty"`
	// FailLinks lists physical links to fail, each as the pair of router
	// references at its ends.
	FailLinks [][2]string `json:"fail_links,omitempty"`
	// FailRouters lists routers to fail entirely.
	FailRouters []string `json:"fail_routers,omitempty"`
	// TimeoutMS caps this request's computation time in milliseconds;
	// zero (or anything above it) means the server's request timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// requestError is an error with a fixed HTTP status, raised for inputs
// the computation discovers to be invalid (unknown router, no such link).
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &requestError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// canonicalKey normalizes a request to its coalescing identity: two
// requests that differ only in failure order, duplicate entries or link
// endpoint order produce the same key and share one computation.
func canonicalKey(scenarioName string, algo netdiag.Algorithm, links [][2]string, routers []string) string {
	tok := make([]string, 0, len(links)+len(routers))
	for _, l := range links {
		a, b := l[0], l[1]
		if b < a {
			a, b = b, a
		}
		tok = append(tok, "L:"+a+"~"+b)
	}
	for _, r := range routers {
		tok = append(tok, "R:"+r)
	}
	sort.Strings(tok)
	tok = slices.Compact(tok)
	return scenarioName + "|" + algo.Slug() + "|" + strings.Join(tok, ",")
}

// parseAlgo resolves the optional wire algorithm field ("" means tomo).
func parseAlgo(name string) (netdiag.Algorithm, error) {
	if name == "" {
		name = "tomo"
	}
	return netdiag.ParseAlgorithm(name)
}

// compute runs one diagnosis against a fork of the scenario's warm
// snapshot and renders the stable wire JSON. This is the deterministic
// core of the service: the same scenario, failure set and algorithm yield
// the same bytes at any parallelism, with telemetry on or off, and match
// the one-shot netdiagnoser CLI on the equivalent exported scenario.
func (s *Server) compute(ctx context.Context, req *DiagnoseRequest, algo netdiag.Algorithm) ([]byte, error) {
	snap, err := s.store.Get(ctx, req.Scenario)
	if err != nil {
		return nil, err
	}
	endFork := telemetry.TraceFromContext(ctx).StartSpan("fork")
	fork := snap.Net.Fork()
	err = applyFaults(snap, fork, req.FailLinks, req.FailRouters)
	endFork()
	if err != nil {
		return nil, err
	}
	return s.diagnoseFork(ctx, snap, fork, algo)
}

// applyFaults injects a request's failure set into fork, resolving router
// references against the scenario snapshot.
func applyFaults(snap *Snapshot, fork *netsim.Network, links [][2]string, routers []string) error {
	topo := snap.Scenario.Topo
	for _, l := range links {
		a, ok := snap.Router(l[0])
		if !ok {
			return badRequestf("unknown router %q in fail_links", l[0])
		}
		b, ok := snap.Router(l[1])
		if !ok {
			return badRequestf("unknown router %q in fail_links", l[1])
		}
		link, ok := topo.LinkBetween(a, b)
		if !ok {
			return badRequestf("no link between %q and %q", l[0], l[1])
		}
		fork.FailLink(link.ID)
	}
	for _, rr := range routers {
		r, ok := snap.Router(rr)
		if !ok {
			return badRequestf("unknown router %q in fail_routers", rr)
		}
		fork.FailRouter(r)
	}
	return nil
}

// diagnoseFork reconverges a faulted fork, measures the post-failure mesh,
// runs the selected algorithm and renders the wire bytes. The single and
// batch endpoints share this path, which is what makes a batch slot
// byte-identical to the equivalent standalone response.
func (s *Server) diagnoseFork(ctx context.Context, snap *Snapshot, fork *netsim.Network, algo netdiag.Algorithm) ([]byte, error) {
	tr := telemetry.TraceFromContext(ctx)
	endSpan := tr.StartSpan("reconverge")
	err := fork.ReconvergeCtx(ctx)
	endSpan()
	if err != nil {
		return nil, err
	}
	endSpan = tr.StartSpan("mesh")
	after, err := fork.MeshCtx(ctx, snap.Scenario.Sensors)
	endSpan()
	if err != nil {
		return nil, err
	}
	meas := experiment.ToMeasurementsMapped(snap.BeforeMesh, after, snap.IP2AS.Lookup)

	opts := []netdiag.DiagnoserOption{
		netdiag.WithAlgorithm(algo),
		netdiag.WithParallelism(s.par),
		netdiag.WithTelemetry(s.tele),
	}
	asx := snap.Scenario.ASX
	if algo == netdiag.NDBgpIgpAlgo || algo == netdiag.NDLGAlgo {
		opts = append(opts, netdiag.WithRoutingInfo(snap.RoutingInfo(fork, asx)))
	}
	if algo == netdiag.NDLGAlgo {
		opts = append(opts, netdiag.WithLookingGlass(snap.LookingGlass(fork, asx, nil)))
	}
	endSpan = tr.StartSpan("diagnose")
	res, err := netdiag.New(opts...).Diagnose(ctx, meas)
	endSpan()
	if err != nil {
		return nil, err
	}
	endSpan = tr.StartSpan("encode")
	defer endSpan()
	return encodeWire(res, algo)
}

// encodeWire renders a result in the shared wire form — the exact bytes
// the netdiagnoser CLI's -json flag prints.
func encodeWire(res *netdiag.Result, algo netdiag.Algorithm) ([]byte, error) {
	var buf bytes.Buffer
	if err := res.Wire(algo.Slug()).Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
