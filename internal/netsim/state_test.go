package netsim

import (
	"context"
	"errors"
	"testing"

	"netdiag/internal/bgp"
	"netdiag/internal/topology"
)

// TestCheckpointRestore pins Fork as the way back to warm state: a fork
// of the healthy parent taken after a sibling fork was faulted and
// reconverged is healthy, converged and routes exactly like the parent.
func TestCheckpointRestore(t *testing.T) {
	f := topology.BuildFig2()
	n, err := New(f.Topo, []topology.ASN{f.ASA, f.ASB, f.ASC})
	if err != nil {
		t.Fatal(err)
	}
	sensors := []topology.RouterID{f.S1, f.S2, f.S3}
	healthy := meshKey(n.Mesh(sensors))

	// Break a sibling thoroughly.
	broken := n.Fork()
	l, _ := f.Topo.LinkBetween(f.R["b1"], f.R["b2"])
	broken.FailLink(l.ID)
	broken.FailRouter(f.R["y2"])
	if err := broken.Reconverge(); err != nil {
		t.Fatal(err)
	}
	if !broken.Mesh(sensors).AnyFailed() {
		t.Fatal("faults should break the mesh")
	}

	// A fresh fork must behave exactly like the healthy parent without
	// reconverging.
	fresh := n.Fork()
	if !fresh.Converged() {
		t.Fatal("a fork of a converged network must be converged")
	}
	if !fresh.LinkIsUp(l.ID) || !fresh.RouterIsUp(f.R["y2"]) {
		t.Fatal("a fork must not see its sibling's faults")
	}
	if k := meshKey(fresh.Mesh(sensors)); k != healthy {
		t.Fatalf("fresh fork's mesh differs from the healthy parent's:\n%s\nvs\n%s", k, healthy)
	}
	if k := meshKey(n.Mesh(sensors)); k != healthy {
		t.Fatal("faulting a fork changed the parent")
	}
}

// TestCheckpointDegradedRoundTrip pins that a fork carries its parent's
// fault configuration (link/router liveness, filters) along with the
// routing state: a fork of a degraded, converged network is degraded the
// same way, and its next reconvergence matches a cold recompute.
func TestCheckpointDegradedRoundTrip(t *testing.T) {
	f := topology.BuildFig2()
	n, err := New(f.Topo, []topology.ASN{f.ASA, f.ASB, f.ASC})
	if err != nil {
		t.Fatal(err)
	}
	sensors := []topology.RouterID{f.S1, f.S2, f.S3}

	// Build a degraded baseline: one failed link, one failed router, one
	// export filter.
	lb, _ := f.Topo.LinkBetween(f.R["b1"], f.R["b2"])
	filt := bgp.ExportFilter{Router: f.R["y3"], Peer: f.R["c1"], Prefix: bgp.PrefixFor(f.ASA)}
	n.FailLink(lb.ID)
	n.FailRouter(f.R["y2"])
	n.AddExportFilter(filt)
	if err := n.Reconverge(); err != nil {
		t.Fatal(err)
	}
	degraded := meshKey(n.Mesh(sensors))

	// Wander a sibling far away from the baseline, including clearing
	// every fault.
	w := n.Fork()
	w.ClearFaults()
	if err := w.Reconverge(); err != nil {
		t.Fatal(err)
	}
	lc, _ := f.Topo.LinkBetween(f.R["c1"], f.R["c2"])
	w.FailLink(lc.ID)
	if err := w.Reconverge(); err != nil {
		t.Fatal(err)
	}

	// A fork of the degraded parent carries its fault configuration
	// exactly.
	fork := n.Fork()
	if fork.LinkIsUp(lb.ID) {
		t.Fatal("fork must carry the parent's link failure")
	}
	if fork.RouterIsUp(f.R["y2"]) {
		t.Fatal("fork must carry the parent's router failure")
	}
	if !fork.LinkIsUp(lc.ID) {
		t.Fatal("fork must not see a sibling's faults")
	}
	if k := meshKey(fork.Mesh(sensors)); k != degraded {
		t.Fatalf("fork's mesh differs from the degraded parent's:\n%s\nvs\n%s", k, degraded)
	}

	// The inherited fault state must feed the next (incremental) delta: a
	// further reconvergence must match a cold recompute of the same faults.
	n2, err := New(f.Topo, []topology.ASN{f.ASA, f.ASB, f.ASC})
	if err != nil {
		t.Fatal(err)
	}
	n2.FailLink(lb.ID)
	n2.FailRouter(f.R["y2"])
	n2.AddExportFilter(filt)
	n2.FailRouter(f.R["x2"])
	if err := n2.reconvergeCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	fork.FailRouter(f.R["x2"])
	if err := fork.Reconverge(); err != nil {
		t.Fatal(err)
	}
	if diffs := fork.BGP().DiffRoutes(n2.BGP(), 5); len(diffs) > 0 {
		t.Fatalf("fork's incremental reconvergence diverges from cold:\n%v", diffs)
	}
}

// TestRestoreDoesNotShareFilterState pins that sibling forks own
// independent filter slices: appending a filter to one must not leak into
// the other.
func TestRestoreDoesNotShareFilterState(t *testing.T) {
	f := topology.BuildFig2()
	n, err := New(f.Topo, []topology.ASN{f.ASA, f.ASB})
	if err != nil {
		t.Fatal(err)
	}
	n.AddExportFilter(bgp.ExportFilter{Router: f.R["y4"], Peer: f.R["b1"], Prefix: bgp.PrefixFor(f.ASA)})
	if err := n.Reconverge(); err != nil {
		t.Fatal(err)
	}
	a, b := n.Fork(), n.Fork()
	a.AddExportFilter(bgp.ExportFilter{Router: f.R["x1"], Peer: f.R["a2"], Prefix: bgp.PrefixFor(f.ASB)})
	if err := a.Reconverge(); err != nil {
		t.Fatal(err)
	}
	if err := b.Reconverge(); err != nil {
		t.Fatal(err)
	}
	if got := b.Traceroute(f.S1, f.S2); !got.OK {
		t.Fatal("sibling fork saw a filter appended to the other network")
	}
}

// TestForkIsolatedFromParentFaults pins that a fork owns its fault
// configuration: faulting the parent in place after Fork leaves the
// fork's liveness as it was, and the fork's next reconvergence matches a
// cold twin that never saw the parent's faults.
func TestForkIsolatedFromParentFaults(t *testing.T) {
	f, n := fig2Net(t)
	fork := n.Fork()
	lb, _ := f.Topo.LinkBetween(f.R["b1"], f.R["b2"])
	n.FailLink(lb.ID)
	n.FailRouter(f.R["y2"])
	n.AddExportFilter(bgp.ExportFilter{Router: f.R["y3"], Peer: f.R["c1"], Prefix: bgp.PrefixFor(f.ASA)})
	if !fork.Converged() || !fork.LinkIsUp(lb.ID) || !fork.RouterIsUp(f.R["y2"]) {
		t.Fatal("faulting the parent after Fork reached the fork")
	}

	twin, err := New(f.Topo, []topology.ASN{f.ASA, f.ASB, f.ASC})
	if err != nil {
		t.Fatal(err)
	}
	lc, _ := f.Topo.LinkBetween(f.R["c1"], f.R["c2"])
	fork.FailLink(lc.ID)
	twin.FailLink(lc.ID)
	diffPair{warm: fork, cold: twin}.reconverge(t, []topology.RouterID{f.S1, f.S2, f.S3}, "fork of a parent faulted after Fork")
}

// TestForkRetryAfterCancelledReconverge pins that a cancelled
// reconvergence keeps the last converged state: the fork still holds its
// parent's routing state, and a retry with a live context matches a cold
// twin of the same faults.
func TestForkRetryAfterCancelledReconverge(t *testing.T) {
	f, n := fig2Net(t)
	fork := n.Fork()
	lb, _ := f.Topo.LinkBetween(f.R["b1"], f.R["b2"])
	fork.FailLink(lb.ID)
	fork.FailRouter(f.R["x2"])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := fork.ReconvergeCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReconvergeCtx(cancelled) = %v, want context.Canceled", err)
	}
	if fork.IGP() != n.IGP() || fork.BGP() != n.BGP() {
		t.Fatal("a cancelled reconvergence replaced the fork's converged state")
	}

	twin, err := New(f.Topo, []topology.ASN{f.ASA, f.ASB, f.ASC})
	if err != nil {
		t.Fatal(err)
	}
	twin.FailLink(lb.ID)
	twin.FailRouter(f.R["x2"])
	diffPair{warm: fork, cold: twin}.reconverge(t, []topology.RouterID{f.S1, f.S2, f.S3}, "retry after a cancelled reconvergence")
}

// TestCheckpointPanicsUnconverged pins that a fork of a network with
// pending fault mutations is unconverged too: it must be reconverged
// before it can be probed.
func TestCheckpointPanicsUnconverged(t *testing.T) {
	f := topology.BuildFig2()
	n, err := New(f.Topo, []topology.ASN{f.ASA})
	if err != nil {
		t.Fatal(err)
	}
	n.FailLink(0)
	fork := n.Fork()
	if fork.Converged() {
		t.Fatal("a fork of an unconverged network must be unconverged")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Traceroute on an unconverged fork must panic")
		}
	}()
	fork.Traceroute(f.S1, f.S2)
}

func TestTraceroutePanicsUnconverged(t *testing.T) {
	f := topology.BuildFig2()
	n, err := New(f.Topo, []topology.ASN{f.ASA})
	if err != nil {
		t.Fatal(err)
	}
	n.FailLink(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Traceroute on unconverged network must panic")
		}
	}()
	n.Traceroute(f.S1, f.S2)
}

func TestNewRejectsUnknownOrigin(t *testing.T) {
	f := topology.BuildFig2()
	if _, err := New(f.Topo, []topology.ASN{9999}); err == nil {
		t.Fatal("unknown origin AS must be rejected")
	}
}

func TestClearFaults(t *testing.T) {
	f := topology.BuildFig2()
	n, err := New(f.Topo, []topology.ASN{f.ASA, f.ASB})
	if err != nil {
		t.Fatal(err)
	}
	n.FailLink(0)
	n.FailRouter(f.R["y1"])
	n.AddExportFilter(bgp.ExportFilter{
		Router: f.R["y1"], Peer: f.R["x2"], Prefix: bgp.PrefixFor(f.ASB),
	})
	n.ClearFaults()
	if err := n.Reconverge(); err != nil {
		t.Fatal(err)
	}
	if !n.Traceroute(f.S1, f.S2).OK {
		t.Fatal("ClearFaults should restore full reachability")
	}
}

func TestForwardingFollowsBGPEgress(t *testing.T) {
	// In Fig2, traffic from x1 towards AS-C must leave X at x2 (the only
	// X-Y session) and enter Y at y1: the walk follows the BGP egress via
	// IGP, then hands off on the eBGP session.
	f := topology.BuildFig2()
	n, err := New(f.Topo, []topology.ASN{f.ASC})
	if err != nil {
		t.Fatal(err)
	}
	p := n.Traceroute(f.R["x1"], f.R["c2"])
	if !p.OK {
		t.Fatalf("x1 -> c2 failed: %v", p)
	}
	want := []topology.RouterID{f.R["x1"], f.R["x2"], f.R["y1"], f.R["y2"], f.R["y3"], f.R["c1"], f.R["c2"]}
	if len(p.Hops) != len(want) {
		t.Fatalf("hops = %v", p)
	}
	for i, w := range want {
		if p.Hops[i].Router != w {
			t.Fatalf("hop %d = %d, want %d", i, p.Hops[i].Router, w)
		}
	}
}

func TestTracerouteToDownRouter(t *testing.T) {
	f := topology.BuildFig2()
	n, err := New(f.Topo, []topology.ASN{f.ASB})
	if err != nil {
		t.Fatal(err)
	}
	n.FailRouter(f.S2)
	if err := n.Reconverge(); err != nil {
		t.Fatal(err)
	}
	p := n.Traceroute(f.S1, f.S2)
	if p.OK {
		t.Fatal("traceroute to a dead router must fail")
	}
	q := n.Traceroute(f.S2, f.S1)
	if q.OK || len(q.Hops) != 1 {
		t.Fatalf("traceroute from a dead router should stop immediately: %v", q)
	}
}
