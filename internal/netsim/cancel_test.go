package netsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"netdiag/internal/topology"
)

// TestReconvergeCtxCancelled pins the server contract: a cancelled context
// aborts convergence before any fixpoint work and surfaces as ctx.Err().
func TestReconvergeCtxCancelled(t *testing.T) {
	fig := topology.BuildFig2()
	n, err := New(fig.Topo, []topology.ASN{fig.ASA, fig.ASB, fig.ASC})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	link, _ := fig.Topo.LinkBetween(fig.R["b1"], fig.R["b2"])
	f := n.Fork()
	f.FailLink(link.ID)
	if err := f.ReconvergeCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReconvergeCtx(cancelled) = %v, want context.Canceled", err)
	}
	if f.Converged() {
		t.Fatal("fork reports converged after a cancelled reconvergence")
	}
}

// TestMeshCtxCancelled pins that a cancelled context aborts the mesh
// fan-out between sensor pairs.
func TestMeshCtxCancelled(t *testing.T) {
	fig := topology.BuildFig2()
	n, err := New(fig.Topo, []topology.ASN{fig.ASA, fig.ASB, fig.ASC})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.MeshCtx(ctx, []topology.RouterID{fig.S1, fig.S2, fig.S3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeshCtx(cancelled) = %v, want context.Canceled", err)
	}
}

// TestCancellationLatency bounds how long the convergence hot path keeps
// running after its deadline fires: the BGP fixpoint checks ctx between
// per-prefix tasks and every 1024 decisions, so even on the paper-scale
// research topology the abort must land well within a generous wall-clock
// bound.
func TestCancellationLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("research-topology convergence in -short mode")
	}
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	// Force the cold path over every stub prefix: the test measures
	// cancellation of a long full convergence (140 prefixes, 20–30 ms),
	// which an incremental reconvergence would finish before the deadline
	// fires. The workload must dwarf the deadline so OS timer latency
	// cannot let the compute complete before any ctx check observes the
	// expiry.
	origins := append([]topology.ASN{}, res.Stubs...)
	n, err := New(res.Topo, origins)
	if err != nil {
		t.Fatal(err)
	}
	f := n.Fork()
	f.FailRouter(res.Topo.AS(res.Tier2[0]).Routers[0])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = f.reconvergeCtx(ctx, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReconvergeCtx under 5ms deadline = %v, want context.DeadlineExceeded", err)
	}
	// The deadline fires 5ms in; everything beyond that is cancellation
	// latency. 5s is orders of magnitude above one prefix's fixpoint.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
}
