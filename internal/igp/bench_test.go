package igp

import (
	"testing"

	"netdiag/internal/topology"
)

// BenchmarkFullSPF measures computing IGP state for the whole research
// topology (all ASes, all sources).
func BenchmarkFullSPF(b *testing.B) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	up := func(topology.LinkID) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(res.Topo, up, 1)
	}
}

// BenchmarkSPF measures one source's Dijkstra over research-1's largest AS
// into a caller-owned row, walking the AS's adjacency and reusing the heap
// scratch. It must allocate nothing (make allocguard): a reconvergence
// reruns this loop for every source of every dirty AS instead of keeping
// tables per failure set.
func BenchmarkSPF(b *testing.B) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	s := New(res.Topo, func(topology.LinkID) bool { return true }, 1)
	largest := res.Topo.ASNumbers()[0]
	for _, asn := range res.Topo.ASNumbers() {
		if len(res.Topo.AS(asn).Routers) > len(res.Topo.AS(largest).Routers) {
			largest = asn
		}
	}
	routers := res.Topo.AS(largest).Routers
	row := make([]int32, res.Topo.NumRouters())
	g := s.adjacency(largest, routers, row)
	q := spf(0, routers, g, row, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q = spf(0, routers, g, row, q)
	}
}

// BenchmarkNextHop measures a single next-hop derivation in a core AS.
func BenchmarkNextHop(b *testing.B) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	s := New(res.Topo, func(topology.LinkID) bool { return true }, 1)
	routers := res.Topo.AS(res.Cores[1]).Routers
	src, dst := routers[0], routers[len(routers)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.NextHop(src, dst); !ok {
			b.Fatal("unreachable")
		}
	}
}
