package bgp

import (
	"strings"
	"testing"

	"netdiag/internal/igp"
	"netdiag/internal/topology"
)

// build converges BGP over an arbitrary topology with every link up.
func build(t *testing.T, topo *topology.Topology, origins map[Prefix]topology.ASN) *State {
	t.Helper()
	up := func(topology.LinkID) bool { return true }
	st, err := Compute(Config{
		Topo: topo, IGP: igp.New(topo, up, 1), IsLinkUp: up, Origins: origins,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCustomerBeatsShorterPeerPath checks the local-pref step dominates
// path length: a customer-learned route wins over a shorter peer route.
func TestCustomerBeatsShorterPeerPath(t *testing.T) {
	// dst is X's customer via transit T (path X-T-D, length 2) and X's
	// peer P announces a direct route (path X... P is dst's provider:
	// X-P-D would also be length 2; make the customer path longer by one
	// extra AS: X-T1-T2-D vs peer path X-P-D).
	b := topology.NewBuilder()
	b.AddAS(1, topology.Core, "X")
	b.AddAS(2, topology.Tier2, "T1")
	b.AddAS(3, topology.Tier2, "T2")
	b.AddAS(4, topology.Core, "P")
	b.AddAS(5, topology.Stub, "D")
	x := b.AddRouter(1, "x")
	t1 := b.AddRouter(2, "t1")
	t2 := b.AddRouter(3, "t2")
	p := b.AddRouter(4, "p")
	d := b.AddRouter(5, "d")
	b.Interconnect(x, t1, topology.Customer) // T1 is X's customer
	b.Interconnect(t1, t2, topology.Customer)
	b.Interconnect(t2, d, topology.Customer)
	b.Interconnect(x, p, topology.Peer)
	b.Interconnect(p, d, topology.Customer) // D is P's customer
	topo := b.MustBuild()

	st := build(t, topo, map[Prefix]topology.ASN{PrefixFor(5): 5})
	rt, ok := st.Best(x, PrefixFor(5))
	if !ok {
		t.Fatal("x has no route to D")
	}
	if rt.LocalPref != prefCustomer {
		t.Fatalf("x should prefer the customer route (localpref %d), got %d with path %v",
			prefCustomer, rt.LocalPref, rt.ASPath)
	}
	if len(rt.ASPath) != 3 {
		t.Fatalf("customer path should be X->T1->T2->D (3 AS hops), got %v", rt.ASPath)
	}
}

// TestShorterPathWinsWithinTier checks the AS-path-length step among
// routes of equal local preference.
func TestShorterPathWinsWithinTier(t *testing.T) {
	// D reachable via customer T (2 AS hops) and customer C directly
	// (1 hop): the shorter customer route wins.
	b := topology.NewBuilder()
	b.AddAS(1, topology.Core, "X")
	b.AddAS(2, topology.Tier2, "T")
	b.AddAS(3, topology.Tier2, "C")
	x := b.AddRouter(1, "x")
	x2 := b.AddRouter(1, "x2")
	b.Connect(x, x2, 1)
	tr := b.AddRouter(2, "t")
	cr := b.AddRouter(3, "c")
	b.Interconnect(x, tr, topology.Customer)
	b.Interconnect(tr, cr, topology.Customer)
	b.Interconnect(x2, cr, topology.Customer)
	topo := b.MustBuild()

	st := build(t, topo, map[Prefix]topology.ASN{PrefixFor(3): 3})
	rt, ok := st.Best(x2, PrefixFor(3))
	if !ok {
		t.Fatal("no route")
	}
	if len(rt.ASPath) != 1 || rt.ASPath[0] != 3 {
		t.Fatalf("x2 should use the direct customer route, got path %v", rt.ASPath)
	}
}

// TestHotPotatoPicksNearestEgress checks the IGP tie-break: with two equal
// routes via different border routers, each router exits at its closest
// egress.
func TestHotPotatoPicksNearestEgress(t *testing.T) {
	// AS 1 is a chain a-b-c; egresses a and c both reach D via
	// equal-length equal-pref routes.
	b := topology.NewBuilder()
	b.AddAS(1, topology.Core, "X")
	b.AddAS(2, topology.Tier2, "L")
	b.AddAS(3, topology.Tier2, "R")
	b.AddAS(4, topology.Stub, "D")
	a := b.AddRouter(1, "a")
	m := b.AddRouter(1, "m")
	c := b.AddRouter(1, "c")
	b.Connect(a, m, 1)
	b.Connect(m, c, 1)
	l := b.AddRouter(2, "l")
	r := b.AddRouter(3, "r")
	d := b.AddRouter(4, "d")
	d2 := b.AddRouter(4, "d2")
	b.Connect(d, d2, 1)
	b.Interconnect(a, l, topology.Customer)
	b.Interconnect(c, r, topology.Customer)
	b.Interconnect(l, d, topology.Customer)
	b.Interconnect(r, d2, topology.Customer)
	topo := b.MustBuild()

	st := build(t, topo, map[Prefix]topology.ASN{PrefixFor(4): 4})
	ra, _ := st.Best(a, PrefixFor(4))
	rc, _ := st.Best(c, PrefixFor(4))
	if ra.Egress != a {
		t.Fatalf("a should exit at itself (hot potato), egress = %d", ra.Egress)
	}
	if rc.Egress != c {
		t.Fatalf("c should exit at itself (hot potato), egress = %d", rc.Egress)
	}
}

// TestLoopPrevention checks that a router never accepts a route whose AS
// path already contains its own AS.
func TestLoopPrevention(t *testing.T) {
	f := topology.BuildFig2()
	st := fig2State(t, f, nil, nil)
	for id := 0; id < f.Topo.NumRouters(); id++ {
		r := topology.RouterID(id)
		own := f.Topo.RouterAS(r)
		for _, p := range st.Prefixes() {
			if rt, ok := st.Best(r, p); ok && rt.hasAS(own) {
				t.Fatalf("router %d (AS%d) accepted looped path %v", r, own, rt.ASPath)
			}
		}
	}
}

// TestPeerRouteNotExportedToPeer verifies the Gao–Rexford export rule
// directly: Y must not export the peer-learned route to A's prefix to
// another peer or provider.
func TestPeerRouteNotExportedToPeer(t *testing.T) {
	// Extend Fig2 with a second peer Z of Y. Y learns A's prefix from
	// peer X and must not hand it to peer Z.
	b := topology.NewBuilder()
	b.AddAS(1, topology.Stub, "A")
	b.AddAS(2, topology.Tier2, "X")
	b.AddAS(3, topology.Tier2, "Y")
	b.AddAS(4, topology.Tier2, "Z")
	a := b.AddRouter(1, "a")
	x := b.AddRouter(2, "x")
	y := b.AddRouter(3, "y")
	z := b.AddRouter(4, "z")
	b.Interconnect(x, a, topology.Customer)
	b.Interconnect(x, y, topology.Peer)
	b.Interconnect(y, z, topology.Peer)
	topo := b.MustBuild()

	st := build(t, topo, map[Prefix]topology.ASN{PrefixFor(1): 1})
	if _, ok := st.Best(y, PrefixFor(1)); !ok {
		t.Fatal("Y should learn A's prefix from its peer X")
	}
	if _, ok := st.Best(z, PrefixFor(1)); ok {
		t.Fatal("Z must NOT learn A's prefix: Y may not export peer routes to peers")
	}
	if st.AdjInPrefixes(z, y)[PrefixFor(1)] {
		t.Fatal("Y leaked a peer route to peer Z")
	}
}

// TestMaxRoundsError checks the per-prefix decision budget reports an
// error instead of spinning forever.
func TestMaxRoundsError(t *testing.T) {
	f := topology.BuildFig2()
	up := func(topology.LinkID) bool { return true }
	_, err := Compute(Config{
		Topo: f.Topo, IGP: igp.New(f.Topo, up, 1), IsLinkUp: up,
		Origins: map[Prefix]topology.ASN{PrefixFor(f.ASA): f.ASA},
		budget:  1,
	})
	if err == nil || !strings.Contains(err.Error(), "no convergence") {
		t.Fatalf("a budget of 1 decision should fail to converge, got %v", err)
	}
}

// TestAccessors covers the remaining read-side API.
func TestAccessors(t *testing.T) {
	f := topology.BuildFig2()
	st := fig2State(t, f, nil, nil)
	// Every fig2 router holds a route to every prefix, and only a decision
	// sets one.
	for _, p := range st.Prefixes() {
		if d := st.per[p].decisions; d < f.Topo.NumRouters() {
			t.Fatalf("%s: %d decisions for %d routers", p, d, f.Topo.NumRouters())
		}
	}
	if got := len(st.Prefixes()); got != 3 {
		t.Fatalf("prefixes = %d", got)
	}
	nbrs := st.EBGPNeighbors(f.R["y1"])
	if len(nbrs) != 1 || nbrs[0] != f.R["x2"] {
		t.Fatalf("y1 neighbors = %v", nbrs)
	}
	if _, ok := st.ASPathFrom(f.ASA, Prefix("nonexistent")); ok {
		t.Fatal("unknown prefix should have no AS path")
	}
}

// TestFilterAllPrefixes verifies filtering every prefix on a session is
// equivalent to withdrawing the session's announcements without dropping
// the session.
func TestFilterAllPrefixes(t *testing.T) {
	f := topology.BuildFig2()
	var filters []ExportFilter
	for _, as := range []topology.ASN{f.ASA, f.ASB, f.ASC} {
		filters = append(filters, ExportFilter{
			Router: f.R["y1"], Peer: f.R["x2"], Prefix: PrefixFor(as),
		})
	}
	st := fig2State(t, f, nil, filters)
	// x2 receives nothing from y1, but the session exists (x2 still
	// exports to y1, so y1 keeps routes learned from x2).
	if n := len(st.AdjInPrefixes(f.R["x2"], f.R["y1"])); n != 0 {
		t.Fatalf("x2 should receive nothing from y1, got %d prefixes", n)
	}
	if !st.AdjInPrefixes(f.R["y1"], f.R["x2"])[PrefixFor(f.ASA)] {
		t.Fatal("y1 should still receive A's prefix from x2")
	}
}
