package igp

import (
	"fmt"
	"math/rand"
	"testing"

	"netdiag/internal/topology"
)

func allUp(topology.LinkID) bool { return true }

func TestShortestPathsFig1(t *testing.T) {
	f := topology.BuildFig1()
	s := New(f.Topo, allUp, 1)
	// s1 -> s2 goes via 7 unit-cost links.
	if d := s.Dist(f.S1, f.S2); d != 7 {
		t.Fatalf("Dist(s1,s2) = %d, want 7", d)
	}
	if d := s.Dist(f.S1, f.S3); d != 6 {
		t.Fatalf("Dist(s1,s3) = %d, want 6", d)
	}
	// Walking next hops must reach the destination in Dist steps.
	cur, steps := f.S1, 0
	for cur != f.S2 {
		nh, ok := s.NextHop(cur, f.S2)
		if !ok {
			t.Fatalf("NextHop(%d, s2) missing", cur)
		}
		cur = nh
		steps++
		if steps > 20 {
			t.Fatal("forwarding loop")
		}
	}
	if steps != 7 {
		t.Fatalf("walked %d hops, want 7", steps)
	}
}

func TestFailureDisconnects(t *testing.T) {
	f := topology.BuildFig1()
	// Fail r9-r11: s2 becomes unreachable from everywhere in the tree.
	l, ok := f.Topo.LinkBetween(f.R["r9"], f.R["r11"])
	if !ok {
		t.Fatal("r9-r11 link missing")
	}
	s := New(f.Topo, func(id topology.LinkID) bool { return id != l.ID }, 1)
	if s.Reachable(f.S1, f.S2) {
		t.Fatal("s2 should be unreachable after r9-r11 failure")
	}
	if !s.Reachable(f.S1, f.S3) {
		t.Fatal("s3 should still be reachable")
	}
	if _, ok := s.NextHop(f.S1, f.S2); ok {
		t.Fatal("NextHop should fail for unreachable destination")
	}
}

func TestReroutingAroundFailure(t *testing.T) {
	// Fig2's AS-Y is a ring y1-y2-y3-y4-y1; failing y1-y2 must reroute
	// y1->y3 via y4.
	f := topology.BuildFig2()
	l, ok := f.Topo.LinkBetween(f.R["y1"], f.R["y2"])
	if !ok {
		t.Fatal("y1-y2 missing")
	}
	before := New(f.Topo, allUp, 1)
	if d := before.Dist(f.R["y1"], f.R["y3"]); d != 2 {
		t.Fatalf("pre-failure Dist(y1,y3) = %d, want 2", d)
	}
	after := New(f.Topo, func(id topology.LinkID) bool { return id != l.ID }, 1)
	if d := after.Dist(f.R["y1"], f.R["y3"]); d != 3 {
		t.Fatalf("post-failure Dist(y1,y3) = %d, want 3 (via y4)", d)
	}
	nh, ok := after.NextHop(f.R["y1"], f.R["y3"])
	if !ok || nh != f.R["y4"] {
		t.Fatalf("post-failure NextHop(y1,y3) = %d, want y4", nh)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	// On undirected links with symmetric costs, IGP distance is symmetric
	// and satisfies the triangle inequality within an AS.
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	s := New(res.Topo, allUp, 1)
	rng := rand.New(rand.NewSource(1))
	for _, core := range res.Cores {
		routers := res.Topo.AS(core).Routers
		for trial := 0; trial < 50; trial++ {
			a := routers[rng.Intn(len(routers))]
			b := routers[rng.Intn(len(routers))]
			c := routers[rng.Intn(len(routers))]
			if s.Dist(a, b) != s.Dist(b, a) {
				t.Fatalf("asymmetric dist %d<->%d", a, b)
			}
			if s.Dist(a, c) > s.Dist(a, b)+s.Dist(b, c) {
				t.Fatalf("triangle inequality violated %d,%d,%d", a, b, c)
			}
		}
	}
}

func TestForwardingLoopFreeProperty(t *testing.T) {
	// Under random single intra-AS link failures, following NextHop from
	// any router either reaches the destination or reports unreachable;
	// it never loops.
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	intra := res.Topo.IntraLinks(res.Cores[0])
	routers := res.Topo.AS(res.Cores[0]).Routers
	for trial := 0; trial < 20; trial++ {
		failed := intra[rng.Intn(len(intra))].ID
		s := New(res.Topo, func(id topology.LinkID) bool { return id != failed }, 1)
		for _, src := range routers {
			for _, dst := range routers {
				cur, hops := src, 0
				for cur != dst {
					nh, ok := s.NextHop(cur, dst)
					if !ok {
						break
					}
					cur = nh
					hops++
					if hops > len(routers) {
						t.Fatalf("loop routing %d->%d with link %d down", src, dst, failed)
					}
				}
			}
		}
	}
}

func TestNextHopDecreasesDistance(t *testing.T) {
	f := topology.BuildFig2()
	s := New(f.Topo, allUp, 1)
	for _, asn := range f.Topo.ASNumbers() {
		routers := f.Topo.AS(asn).Routers
		for _, a := range routers {
			for _, b := range routers {
				if a == b {
					continue
				}
				nh, ok := s.NextHop(a, b)
				if !ok {
					t.Fatalf("NextHop(%d,%d) missing in connected AS", a, b)
				}
				if s.Dist(nh, b) >= s.Dist(a, b) {
					t.Fatalf("next hop does not decrease distance %d->%d", a, b)
				}
			}
		}
	}
}

func TestNextHopsECMP(t *testing.T) {
	// Build a diamond with two equal-cost branches inside one AS.
	b := topology.NewBuilder()
	b.AddAS(1, topology.Core, "")
	a := b.AddRouter(1, "")
	m1 := b.AddRouter(1, "")
	m2 := b.AddRouter(1, "")
	z := b.AddRouter(1, "")
	b.Connect(a, m1, 1)
	b.Connect(a, m2, 1)
	b.Connect(m1, z, 1)
	b.Connect(m2, z, 1)
	topo := b.MustBuild()
	s := New(topo, allUp, 1)

	hops := s.NextHops(a, z)
	if len(hops) != 2 || hops[0] != m1 || hops[1] != m2 {
		t.Fatalf("NextHops = %v, want [m1 m2] sorted", hops)
	}
	single, ok := s.NextHop(a, z)
	if !ok || single != hops[0] {
		t.Fatalf("NextHop %v must be the first ECMP member %v", single, hops[0])
	}
	if got := s.NextHops(a, a); len(got) != 1 || got[0] != a {
		t.Fatalf("NextHops to self = %v", got)
	}
	// Unreachable: disconnect z.
	s2 := New(topo, func(id topology.LinkID) bool {
		l := topo.Link(id)
		return !l.Has(z)
	}, 1)
	if got := s2.NextHops(a, z); got != nil {
		t.Fatalf("NextHops to unreachable = %v, want nil", got)
	}
	if _, ok := s2.NextHop(a, z); ok {
		t.Fatal("NextHop to unreachable must fail")
	}
}

// TestSPFMatchesFloydWarshall checks every Dist against a per-AS
// Floyd–Warshall over the intra-AS links still up, under random link and
// router failure sets (a failed router downs its links), for New at one
// and four workers and for a Rebuild of the healthy state over the ASes
// the failures dirty.
func TestSPFMatchesFloydWarshall(t *testing.T) {
	names := []string{"fig1", "fig2"}
	topos := []*topology.Topology{topology.BuildFig1().Topo, topology.BuildFig2().Topo}
	for _, seed := range []int64{1, 7} {
		res, err := topology.GenerateResearch(topology.DefaultResearchConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, fmt.Sprintf("research-%d", seed))
		topos = append(topos, res.Topo)
	}
	for ti, topo := range topos {
		name := names[ti]
		var intra []*topology.PhysLink
		for _, l := range topo.Links() {
			if l.Kind == topology.Intra {
				intra = append(intra, l)
			}
		}
		healthy := New(topo, allUp, 1)
		rng := rand.New(rand.NewSource(int64(ti)))
		for trial := 0; trial < 20; trial++ {
			linkUp := make([]bool, topo.NumLinks())
			for i := range linkUp {
				linkUp[i] = true
			}
			routerUp := make([]bool, topo.NumRouters())
			for i := range routerUp {
				routerUp[i] = true
			}
			dirtySet := map[topology.ASN]bool{}
			for k := rng.Intn(4); k > 0; k-- {
				l := intra[rng.Intn(len(intra))]
				linkUp[l.ID] = false
				dirtySet[topo.RouterAS(l.A)] = true
			}
			for k := rng.Intn(3); k > 0; k-- {
				r := topology.RouterID(rng.Intn(topo.NumRouters()))
				routerUp[r] = false
				dirtySet[topo.RouterAS(r)] = true
			}
			isUp := func(id topology.LinkID) bool {
				l := topo.Link(id)
				return linkUp[id] && routerUp[l.A] && routerUp[l.B]
			}
			var dirty []topology.ASN
			for _, asn := range topo.ASNumbers() {
				if dirtySet[asn] {
					dirty = append(dirty, asn)
				}
			}
			want := floydWarshall(topo, isUp)
			for label, s := range map[string]*State{
				"New/1":   New(topo, isUp, 1),
				"New/4":   New(topo, isUp, 4),
				"Rebuild": Rebuild(healthy, isUp, dirty, 2),
			} {
				for src := 0; src < topo.NumRouters(); src++ {
					for dst := 0; dst < topo.NumRouters(); dst++ {
						if got := s.Dist(topology.RouterID(src), topology.RouterID(dst)); got != want[src][dst] {
							t.Fatalf("%s trial %d %s: Dist(%d,%d) = %d, want %d", name, trial, label, src, dst, got, want[src][dst])
						}
					}
				}
			}
		}
	}
}

// floydWarshall returns all-pairs IGP distances computed per AS over the
// intra-AS links isUp reports up, with Infinity between ASes.
func floydWarshall(topo *topology.Topology, isUp func(topology.LinkID) bool) [][]int {
	d := make([][]int, topo.NumRouters())
	for i := range d {
		d[i] = make([]int, topo.NumRouters())
		for j := range d[i] {
			d[i][j] = Infinity
		}
		d[i][i] = 0
	}
	for _, l := range topo.Links() {
		if l.Kind == topology.Intra && isUp(l.ID) && l.Cost < d[l.A][l.B] {
			d[l.A][l.B], d[l.B][l.A] = l.Cost, l.Cost
		}
	}
	for _, asn := range topo.ASNumbers() {
		rs := topo.AS(asn).Routers
		for _, k := range rs {
			for _, i := range rs {
				for _, j := range rs {
					if d[i][k] < Infinity && d[k][j] < Infinity && d[i][k]+d[k][j] < d[i][j] {
						d[i][j] = d[i][k] + d[k][j]
					}
				}
			}
		}
	}
	return d
}
