package netsim

import (
	"context"
	"testing"

	"netdiag/internal/bgp"
	"netdiag/internal/topology"
)

func benchNetwork(tb testing.TB) (*Network, []topology.RouterID) {
	tb.Helper()
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(1))
	if err != nil {
		tb.Fatal(err)
	}
	var origins []topology.ASN
	var sensors []topology.RouterID
	for i := 0; i < 10; i++ {
		as := res.Stubs[i*13]
		origins = append(origins, as)
		sensors = append(sensors, res.Topo.AS(as).Routers[0])
	}
	n, err := New(res.Topo, origins)
	if err != nil {
		tb.Fatal(err)
	}
	return n, sensors
}

// forwardKernel returns one forwarding step of a traceroute: the BGP
// best-route lookup and IGP next hop at the source sensor towards another
// stub AS.
func forwardKernel(tb testing.TB) func() {
	n, sensors := benchNetwork(tb)
	src, dst := sensors[0], sensors[9]
	pfx := bgp.PrefixFor(n.Topology().RouterAS(dst))
	return func() {
		if _, ok := n.forward(src, dst, pfx); !ok {
			tb.Fatal("blackhole")
		}
	}
}

// BenchmarkForward measures forwardKernel.
func BenchmarkForward(b *testing.B) {
	run := forwardKernel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestForwardZeroAllocs pins that one forwarding step allocates nothing.
func TestForwardZeroAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, forwardKernel(t)); allocs != 0 {
		t.Fatalf("one forwarding step allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkTraceroute measures one forwarding walk across the internet.
func BenchmarkTraceroute(b *testing.B) {
	n, sensors := benchNetwork(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.Traceroute(sensors[0], sensors[9]).OK {
			b.Fatal("path failed")
		}
	}
}

// BenchmarkFullMesh measures the 90-traceroute measurement round the
// sensors perform each period.
func BenchmarkFullMesh(b *testing.B) {
	n, sensors := benchNetwork(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.Mesh(sensors).AnyFailed() {
			b.Fatal("healthy mesh failed")
		}
	}
}

// BenchmarkFailureTrial measures a full fork-fail-reconverge-measure
// cycle, the unit of every evaluation run.
func BenchmarkFailureTrial(b *testing.B) {
	n, sensors := benchNetwork(b)
	link := n.Topology().Links()[0].ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fork := n.Fork()
		fork.FailLink(link)
		if err := fork.Reconverge(); err != nil {
			b.Fatal(err)
		}
		fork.Mesh(sensors)
	}
}

// reconvergeScenario is one cold-vs-incremental comparison case: a
// converged base network and the fault delta applied to its fork.
type reconvergeScenario struct {
	name  string
	build func(b *testing.B) *Network
	fault func(n *Network)
}

// reconvergeScenarios returns the delta cases both Reconverge benchmarks
// run, so benchjson's incremental-warm-speedup values can pair them by
// sub-benchmark name.
func reconvergeScenarios(b *testing.B) []reconvergeScenario {
	b.Helper()
	buildFig1 := func(b *testing.B) *Network {
		fig := topology.BuildFig1()
		n, err := New(fig.Topo, []topology.ASN{1})
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	buildFig2 := func(b *testing.B) *Network {
		fig := topology.BuildFig2()
		n, err := New(fig.Topo, []topology.ASN{fig.ASA, fig.ASB, fig.ASC, fig.ASX, fig.ASY})
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	buildResearch := func(b *testing.B) *Network {
		res, err := topology.GenerateResearch(topology.DefaultResearchConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		var origins []topology.ASN
		for i := 0; i < 10; i++ {
			origins = append(origins, res.Stubs[i*13])
		}
		n, err := New(res.Topo, origins)
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	linkOf := func(n *Network, a, bn string) topology.LinkID {
		var id topology.LinkID = topology.LinkID(^uint32(0) >> 1)
		for _, l := range n.Topology().Links() {
			if (n.Topology().Router(l.A).Name == a && n.Topology().Router(l.B).Name == bn) ||
				(n.Topology().Router(l.A).Name == bn && n.Topology().Router(l.B).Name == a) {
				return l.ID
			}
		}
		b.Fatalf("no link %s-%s", a, bn)
		return id
	}
	return []reconvergeScenario{
		{
			name:  "fig1-link",
			build: buildFig1,
			fault: func(n *Network) { n.FailLink(linkOf(n, "r9", "r11")) },
		},
		{
			name:  "fig2-link",
			build: buildFig2,
			fault: func(n *Network) { n.FailLink(linkOf(n, "y3", "y4")) },
		},
		{
			name:  "fig2-2link",
			build: buildFig2,
			fault: func(n *Network) {
				n.FailLink(linkOf(n, "y3", "y4"))
				n.FailLink(linkOf(n, "c1", "c2"))
			},
		},
		{
			name:  "fig2-filter",
			build: buildFig2,
			fault: func(n *Network) {
				topo := n.Topology()
				var y4, b1 topology.RouterID
				for i := 0; i < topo.NumRouters(); i++ {
					switch topo.Router(topology.RouterID(i)).Name {
					case "y4":
						y4 = topology.RouterID(i)
					case "b1":
						b1 = topology.RouterID(i)
					}
				}
				n.AddExportFilter(bgp.ExportFilter{Router: y4, Peer: b1, Prefix: n.BGP().Prefixes()[0]})
			},
		},
		{
			name:  "research-link",
			build: buildResearch,
			fault: func(n *Network) { n.FailLink(n.Topology().Links()[0].ID) },
		},
	}
}

// BenchmarkReconvergeCold measures a from-scratch reconvergence of each
// delta scenario: full SPF for every AS plus empty-state BGP fixpoints.
func BenchmarkReconvergeCold(b *testing.B) {
	for _, sc := range reconvergeScenarios(b) {
		b.Run(sc.name, func(b *testing.B) {
			base := sc.build(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := base.Fork()
				sc.fault(f)
				if err := f.reconvergeCtx(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReconvergeIncremental measures the same deltas on the
// incremental path: dirty-AS-only SPF and a warm-started, dirty-set-pruned
// BGP fixpoint. The dirty-fraction column reports how much of the prefix
// set re-ran its fixpoint (the rest shared the base state untouched).
func BenchmarkReconvergeIncremental(b *testing.B) {
	for _, sc := range reconvergeScenarios(b) {
		b.Run(sc.name, func(b *testing.B) {
			base := sc.build(b)
			var dirty, skipped int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := base.Fork()
				sc.fault(f)
				if err := f.Reconverge(); err != nil {
					b.Fatal(err)
				}
				dirty, skipped = f.BGP().WarmStats()
			}
			b.StopTimer()
			if total := dirty + skipped; total > 0 {
				b.ReportMetric(float64(dirty)/float64(total), "dirty-fraction")
			}
		})
	}
}

// BenchmarkAllPaths measures multipath enumeration for one pair.
func BenchmarkAllPaths(b *testing.B) {
	n, sensors := benchNetwork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(n.AllPaths(sensors[0], sensors[9], 16)) == 0 {
			b.Fatal("no paths")
		}
	}
}
