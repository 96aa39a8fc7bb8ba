package bgp

import (
	"context"
	"slices"
	"testing"

	"netdiag/internal/igp"
	"netdiag/internal/topology"
)

// BenchmarkConvergence measures a full path-vector convergence of the
// 165-AS research topology with 10 announced prefixes — the dominant cost
// of every simulated failure trial.
func BenchmarkConvergence(b *testing.B) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	origins := map[Prefix]topology.ASN{}
	for i := 0; i < 10; i++ {
		s := res.Stubs[i*13]
		origins[PrefixFor(s)] = s
	}
	up := func(topology.LinkID) bool { return true }
	ig := igp.New(res.Topo, up, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(Config{Topo: res.Topo, IGP: ig, IsLinkUp: up, Origins: origins}); err != nil {
			b.Fatal(err)
		}
	}
}

// confirmFixpoint returns a drain of a worklist seeded with every router
// over an already converged prefix of the research topology, reusing the
// worklist: a drain whose decisions change nothing, one per router. The
// second func reports whether the prefix is still as converged.
func confirmFixpoint(tb testing.TB) (drain func(), unchanged func() bool) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(1))
	if err != nil {
		tb.Fatal(err)
	}
	origins := map[Prefix]topology.ASN{}
	for i := 0; i < 10; i++ {
		s := res.Stubs[i*13]
		origins[PrefixFor(s)] = s
	}
	up := func(topology.LinkID) bool { return true }
	st, err := Compute(Config{Topo: res.Topo, IGP: igp.New(res.Topo, up, 1), IsLinkUp: up, Origins: origins})
	if err != nil {
		tb.Fatal(err)
	}
	p := st.prefixes[0]
	conv := st.per[p]
	ps := &prefixState{best: slices.Clone(conv.best), adj: slices.Clone(conv.adj), layout: conv.layout}
	nr := res.Topo.NumRouters()
	wl := getWorklist(nr, nil)
	ctx := context.Background()
	drain = func() {
		for r := 0; r < nr; r++ {
			wl.push(topology.RouterID(r))
		}
		if d, err := st.drain(ctx, p, origins[p], ps, wl); err != nil || d != nr {
			tb.Fatalf("a converged prefix took %d decisions (%v), want %d", d, err, nr)
		}
	}
	unchanged = func() bool {
		return slices.Equal(ps.best, conv.best) && slices.Equal(ps.adj, conv.adj)
	}
	return drain, unchanged
}

// BenchmarkConfirmFixpoint measures confirmFixpoint's drain.
func BenchmarkConfirmFixpoint(b *testing.B) {
	drain, unchanged := confirmFixpoint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain()
	}
	b.StopTimer()
	if !unchanged() {
		b.Fatal("a converged prefix changed")
	}
}

// TestConfirmFixpointZeroAllocs pins that a drain confirming a converged
// prefix allocates nothing and changes nothing.
func TestConfirmFixpointZeroAllocs(t *testing.T) {
	drain, unchanged := confirmFixpoint(t)
	if allocs := testing.AllocsPerRun(100, drain); allocs != 0 {
		t.Fatalf("confirming a converged prefix allocated %.1f times per run, want 0", allocs)
	}
	if !unchanged() {
		t.Fatal("a converged prefix changed")
	}
}

// BenchmarkDecisionProcess measures the per-router decision step in
// isolation on a converged state.
func BenchmarkDecisionProcess(b *testing.B) {
	f := topology.BuildFig2()
	up := func(topology.LinkID) bool { return true }
	st, err := Compute(Config{
		Topo: f.Topo, IGP: igp.New(f.Topo, up, 1), IsLinkUp: up,
		Origins: map[Prefix]topology.ASN{
			PrefixFor(f.ASA): f.ASA,
			PrefixFor(f.ASB): f.ASB,
			PrefixFor(f.ASC): f.ASC,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	p := PrefixFor(f.ASB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.decide(f.R["x1"], p, f.ASB, st.per[p]) == nil {
			b.Fatal("no route")
		}
	}
}

// BenchmarkConvergenceParallel measures the same full convergence with the
// per-prefix fixpoints fanned out over 4 workers. On a multi-core machine
// this should approach a 4x speedup over BenchmarkConvergence.
func BenchmarkConvergenceParallel(b *testing.B) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	origins := map[Prefix]topology.ASN{}
	for i := 0; i < 10; i++ {
		s := res.Stubs[i*13]
		origins[PrefixFor(s)] = s
	}
	up := func(topology.LinkID) bool { return true }
	ig := igp.New(res.Topo, up, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(Config{Topo: res.Topo, IGP: ig, IsLinkUp: up, Origins: origins, Parallelism: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
