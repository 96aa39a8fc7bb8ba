package netdiag_test

import (
	"context"
	"io"
	"log/slog"
	"reflect"
	"testing"

	"netdiag"
)

// spanNames collects the distinct phase names of a span list.
func spanNames(spans []netdiag.Span) map[string]bool {
	out := map[string]bool{}
	for _, s := range spans {
		out[s.Name] = true
	}
	return out
}

// TestDiagnoseTelemetrySpans asserts an observed Diagnose call returns the
// per-phase span snapshot, and that attaching telemetry changes nothing
// about the hypothesis.
func TestDiagnoseTelemetrySpans(t *testing.T) {
	meas, routing := fig2Measurements(t)
	ctx := context.Background()

	plain, err := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDBgpIgpAlgo),
		netdiag.WithRoutingInfo(routing),
	).Diagnose(ctx, meas)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil {
		t.Fatalf("unobserved Diagnose populated Result.Telemetry: %v", plain.Telemetry)
	}

	reg := netdiag.NewTelemetry()
	observed, err := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDBgpIgpAlgo),
		netdiag.WithRoutingInfo(routing),
		netdiag.WithTelemetry(reg),
	).Diagnose(ctx, meas)
	if err != nil {
		t.Fatal(err)
	}
	names := spanNames(observed.Telemetry)
	for _, want := range []string{"validate", "expand", "build_sets", "candidates", "greedy", "attribute"} {
		if !names[want] {
			t.Errorf("Result.Telemetry missing %q span (got %v)", want, observed.Telemetry)
		}
	}
	iters := 0
	for _, s := range observed.Telemetry {
		if s.Name == "greedy_iter" {
			iters++
			if s.Iteration < 1 {
				t.Errorf("greedy_iter span without iteration number: %+v", s)
			}
		}
	}
	if iters != observed.Iterations {
		t.Errorf("greedy_iter spans = %d, want %d (Result.Iterations)", iters, observed.Iterations)
	}

	observed.Telemetry = nil
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("telemetry changed the diagnosis:\nplain    %v\nobserved %v", plain, observed)
	}

	snap := reg.Snapshot()
	if snap.Counters["diagnose.runs"] != 1 {
		t.Errorf("diagnose.runs = %d, want 1", snap.Counters["diagnose.runs"])
	}
	if h, ok := snap.Histograms["diagnose.phase.greedy_ns"]; !ok || h.Count == 0 {
		t.Errorf("diagnose.phase.greedy_ns histogram missing or empty: %+v", h)
	}
}

// TestDiagnoseWithLogger asserts a logger alone also enables the span
// snapshot, and that logging goes through without disturbing the result.
func TestDiagnoseWithLogger(t *testing.T) {
	meas, _ := fig2Measurements(t)
	lg := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}))

	plain, err := netdiag.NDEdge(meas)
	if err != nil {
		t.Fatal(err)
	}
	logged, err := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDEdgeAlgo),
		netdiag.WithLogger(lg),
	).Diagnose(context.Background(), meas)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged.Telemetry) == 0 {
		t.Fatal("WithLogger did not populate Result.Telemetry")
	}
	logged.Telemetry = nil
	if !reflect.DeepEqual(plain, logged) {
		t.Fatalf("logging changed the diagnosis:\nplain  %v\nlogged %v", plain, logged)
	}
}

// TestNetworkTelemetry asserts a simulated network wired with telemetry
// feeds the simulator-layer metrics: reconvergences, SPF cache activity,
// convergence-phase latencies, and probe-mesh counts.
func TestNetworkTelemetry(t *testing.T) {
	fig := netdiag.BuildFig2()
	reg := netdiag.NewTelemetry()
	net, err := netdiag.NewNetwork(fig.Topo,
		[]netdiag.ASN{fig.ASA, fig.ASB, fig.ASC},
		netdiag.WithNetworkTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	net.Mesh([]netdiag.RouterID{fig.S1, fig.S2, fig.S3})

	snap := reg.Snapshot()
	if snap.Counters["netsim.reconverges"] != 1 {
		t.Errorf("netsim.reconverges = %d, want 1", snap.Counters["netsim.reconverges"])
	}
	if snap.Counters["igp.spf_cache_hits"]+snap.Counters["igp.spf_cache_misses"] != 0 {
		t.Errorf("SPF cache counters moved without a cache attached")
	}
	for _, name := range []string{"netsim.phase.spf_ns", "netsim.phase.bgp_ns", "netsim.phase.mesh_ns"} {
		if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
			t.Errorf("%s histogram missing or empty: %+v", name, h)
		}
	}
	if got := snap.Counters["probe.pairs_traced"]; got != 6 {
		t.Errorf("probe.pairs_traced = %d, want 6 (3 sensors, ordered pairs)", got)
	}
	if got := snap.Counters["probe.mesh_fills"]; got != 1 {
		t.Errorf("probe.mesh_fills = %d, want 1", got)
	}
	_ = net
}
