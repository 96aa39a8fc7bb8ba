package bgp

import (
	"testing"

	"netdiag/internal/igp"
	"netdiag/internal/topology"
)

// fig2State converges Fig2 with the given link-up predicate and filters.
func fig2State(t *testing.T, f *topology.Fig2, isUp func(topology.LinkID) bool, filters []ExportFilter) *State {
	t.Helper()
	if isUp == nil {
		isUp = func(topology.LinkID) bool { return true }
	}
	st, err := Compute(Config{
		Topo:     f.Topo,
		IGP:      igp.New(f.Topo, isUp, 1),
		IsLinkUp: isUp,
		Origins: map[Prefix]topology.ASN{
			PrefixFor(f.ASA): f.ASA,
			PrefixFor(f.ASB): f.ASB,
			PrefixFor(f.ASC): f.ASC,
		},
		Filters: filters,
	})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	return st
}

func TestFig2Convergence(t *testing.T) {
	f := topology.BuildFig2()
	st := fig2State(t, f, nil, nil)

	// Every router must have a route to every prefix.
	for id := 0; id < f.Topo.NumRouters(); id++ {
		for _, p := range st.Prefixes() {
			if _, ok := st.Best(topology.RouterID(id), p); !ok {
				t.Fatalf("router %s has no route to %s",
					f.Topo.Router(topology.RouterID(id)).Name, p)
			}
		}
	}

	// x1's route to B must go X->Y->B.
	b, _ := st.Best(f.R["x1"], PrefixFor(f.ASB))
	want := []topology.ASN{f.ASY, f.ASB}
	if len(b.ASPath) != 2 || b.ASPath[0] != want[0] || b.ASPath[1] != want[1] {
		t.Fatalf("x1 path to B = %v, want %v", b.ASPath, want)
	}
	// y1's route to A is via the peer X (local-pref peer tier).
	a, _ := st.Best(f.R["y1"], PrefixFor(f.ASA))
	if a.LocalPref != prefPeer {
		t.Fatalf("y1 route to A localpref = %d, want peer tier %d", a.LocalPref, prefPeer)
	}
}

func TestASPathFrom(t *testing.T) {
	f := topology.BuildFig2()
	st := fig2State(t, f, nil, nil)
	path, ok := st.ASPathFrom(f.ASA, PrefixFor(f.ASB))
	if !ok {
		t.Fatal("AS-A has no path to B")
	}
	want := []topology.ASN{f.ASA, f.ASX, f.ASY, f.ASB}
	if len(path) != len(want) {
		t.Fatalf("ASPathFrom(A,B) = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("ASPathFrom(A,B) = %v, want %v", path, want)
		}
	}
	if self, ok := st.ASPathFrom(f.ASB, PrefixFor(f.ASB)); !ok || len(self) != 1 || self[0] != f.ASB {
		t.Fatalf("origin AS path = %v, %v", self, ok)
	}
}

func TestGaoRexfordValleyFree(t *testing.T) {
	// A peer route must never be exported to another peer or provider:
	// AS-A's prefix (learned by Y over the X-Y peering) must not be
	// re-exported by Y to... Y has only customers B, C besides X, so
	// instead check the AS paths everywhere are valley-free.
	f := topology.BuildFig2()
	st := fig2State(t, f, nil, nil)
	for id := 0; id < f.Topo.NumRouters(); id++ {
		r := topology.RouterID(id)
		for _, p := range st.Prefixes() {
			b, ok := st.Best(r, p)
			if !ok || b.Local {
				continue
			}
			full := append([]topology.ASN{f.Topo.RouterAS(r)}, b.ASPath...)
			if !valleyFree(f.Topo, full) {
				t.Fatalf("router %d uses non-valley-free path %v to %s", r, full, p)
			}
		}
	}
}

// valleyFree checks the Gao–Rexford pattern: a sequence of customer->provider
// ("up") hops, at most one peer hop, then provider->customer ("down") hops.
func valleyFree(topo *topology.Topology, path []topology.ASN) bool {
	const (
		up = iota
		peered
		down
	)
	phase := up
	for i := 0; i+1 < len(path); i++ {
		rel := topo.Rel(path[i], path[i+1]) // my view of next hop
		switch rel {
		case topology.Provider: // going up
			if phase != up {
				return false
			}
		case topology.Peer:
			if phase != up {
				return false
			}
			phase = peered
		case topology.Customer: // going down
			phase = down
		default:
			return false
		}
	}
	return true
}

func TestLinkFailureReroutesOrWithdraws(t *testing.T) {
	f := topology.BuildFig2()
	// Fail the single Y-B link (y4-b1): prefix B must disappear from
	// everyone outside B.
	l, ok := f.Topo.LinkBetween(f.R["y4"], f.R["b1"])
	if !ok {
		t.Fatal("y4-b1 missing")
	}
	st := fig2State(t, f, func(id topology.LinkID) bool { return id != l.ID }, nil)
	if _, ok := st.Best(f.R["x1"], PrefixFor(f.ASB)); ok {
		t.Fatal("x1 should have lost its route to B")
	}
	if _, ok := st.Best(f.R["y1"], PrefixFor(f.ASB)); ok {
		t.Fatal("y1 should have lost its route to B")
	}
	// Other prefixes survive.
	if _, ok := st.Best(f.R["x1"], PrefixFor(f.ASC)); !ok {
		t.Fatal("x1 lost unrelated route to C")
	}
}

func TestWithdrawalDiff(t *testing.T) {
	f := topology.BuildFig2()
	before := fig2State(t, f, nil, nil)
	l, _ := f.Topo.LinkBetween(f.R["y4"], f.R["b1"])
	after := fig2State(t, f, func(id topology.LinkID) bool { return id != l.ID }, nil)

	// x2 received B's prefix from y1 before, not after: a withdrawal.
	pb := PrefixFor(f.ASB)
	if !before.AdjInPrefixes(f.R["x2"], f.R["y1"])[pb] {
		t.Fatal("x2 should have received B from y1 before the failure")
	}
	if after.AdjInPrefixes(f.R["x2"], f.R["y1"])[pb] {
		t.Fatal("x2 should no longer receive B from y1 after the failure")
	}
}

func TestExportFilterMisconfiguration(t *testing.T) {
	// The paper's §3.1 example: y1 stops announcing C's route to x2 while
	// still announcing B's. Path s1->s3 must lose routing through X while
	// s1->s2 still works.
	f := topology.BuildFig2()
	pc := PrefixFor(f.ASC)
	st := fig2State(t, f, nil, []ExportFilter{{Router: f.R["y1"], Peer: f.R["x2"], Prefix: pc}})

	if _, ok := st.Best(f.R["x2"], pc); ok {
		t.Fatal("x2 should have no route to C under the export filter")
	}
	if _, ok := st.Best(f.R["x2"], PrefixFor(f.ASB)); !ok {
		t.Fatal("x2 must keep its route to B")
	}
	// a2 (in AS A) loses C too: its only provider is X.
	if _, ok := st.Best(f.R["a2"], pc); ok {
		t.Fatal("a2 should have no route to C")
	}
	// Y itself still routes to C fine.
	if _, ok := st.Best(f.R["y1"], pc); !ok {
		t.Fatal("y1 must keep its customer route to C")
	}
}

func TestMultihomedFailover(t *testing.T) {
	// In the research topology, a multihomed stub keeps connectivity when
	// one of its two access links fails.
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	topo := res.Topo
	var stub topology.ASN
	for _, s := range res.Stubs {
		if len(topo.Neighbors(s)) == 2 {
			stub = s
			break
		}
	}
	if stub == 0 {
		t.Skip("no multihomed stub with this seed")
	}
	r := topo.AS(stub).Routers[0]
	access := topo.Router(r).Links
	if len(access) != 2 {
		t.Fatalf("multihomed stub has %d access links", len(access))
	}
	origins := map[Prefix]topology.ASN{PrefixFor(stub): stub}
	up := func(id topology.LinkID) bool { return id != access[0] }
	st, err := Compute(Config{
		Topo: topo, IGP: igp.New(topo, up, 1), IsLinkUp: up, Origins: origins,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A core router must still have a route to the stub via the backup.
	coreR := topo.AS(res.Cores[0]).Routers[0]
	if _, ok := st.Best(coreR, PrefixFor(stub)); !ok {
		t.Fatal("core lost route to multihomed stub despite backup link")
	}
}

func TestRouterFailure(t *testing.T) {
	f := topology.BuildFig2()
	// Fail y1: X loses its only peering point with Y, so prefixes B and C
	// vanish from X and A.
	downRouter := f.R["y1"]
	isRouterUp := func(r topology.RouterID) bool { return r != downRouter }
	isLinkUp := func(id topology.LinkID) bool {
		l := f.Topo.Link(id)
		return !l.Has(downRouter)
	}
	st, err := Compute(Config{
		Topo:       f.Topo,
		IGP:        igp.New(f.Topo, isLinkUp, 1),
		IsLinkUp:   isLinkUp,
		IsRouterUp: isRouterUp,
		Origins: map[Prefix]topology.ASN{
			PrefixFor(f.ASB): f.ASB,
			PrefixFor(f.ASC): f.ASC,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Best(f.R["x1"], PrefixFor(f.ASB)); ok {
		t.Fatal("x1 should lose B when y1 dies")
	}
	// y2 must still route to C (y2-y3-c1 intact).
	if _, ok := st.Best(f.R["y2"], PrefixFor(f.ASC)); !ok {
		t.Fatal("y2 should keep C after y1 dies")
	}
}

func TestConvergenceOnResearchTopology(t *testing.T) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	origins := map[Prefix]topology.ASN{}
	for i := 0; i < 10; i++ {
		s := res.Stubs[i*13%len(res.Stubs)]
		origins[PrefixFor(s)] = s
	}
	st, err := Compute(Config{
		Topo: res.Topo, IGP: igp.New(res.Topo, nil2up(), 1), IsLinkUp: nil2up(), Origins: origins,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A router is re-decided only when an input changed, and on this
	// hierarchy most routers settle on their first decision.
	for p := range origins {
		if d := st.per[p].decisions; d > 2*res.Topo.NumRouters() {
			t.Fatalf("%s: convergence took %d decisions for %d routers; the worklist is misbehaving", p, d, res.Topo.NumRouters())
		}
	}
	// Every originated prefix must be reachable from every core router
	// (the research graph is fully connected).
	for p := range origins {
		for _, core := range res.Cores {
			for _, r := range res.Topo.AS(core).Routers {
				if _, ok := st.Best(r, p); !ok {
					t.Fatalf("core router %d missing route to %s", r, p)
				}
			}
		}
	}
}

func nil2up() func(topology.LinkID) bool {
	return func(topology.LinkID) bool { return true }
}

func TestRouteEqual(t *testing.T) {
	a := &Route{Prefix: "p", ASPath: []topology.ASN{1, 2}, LocalPref: 100, Egress: 3}
	b := &Route{Prefix: "p", ASPath: []topology.ASN{1, 2}, LocalPref: 100, Egress: 3}
	if !a.equal(b) {
		t.Fatal("identical routes must compare equal")
	}
	b.ASPath = []topology.ASN{1, 3}
	if a.equal(b) {
		t.Fatal("different AS paths must not compare equal")
	}
	if !(*Route)(nil).equal(nil) {
		t.Fatal("nil routes are equal")
	}
	if a.equal(nil) {
		t.Fatal("route != nil")
	}
}
