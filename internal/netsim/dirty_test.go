package netsim

import (
	"context"
	"math/rand"
	"testing"

	"netdiag/internal/bgp"
	"netdiag/internal/probe"
	"netdiag/internal/topology"
)

// dirtyFixture converges a network over topo with one origin prefix per
// sensor AS, mirroring the server snapshot setup.
func dirtyFixture(t *testing.T, topo *topology.Topology, sensors []topology.RouterID) (*Network, []bgp.Prefix) {
	t.Helper()
	seen := map[topology.ASN]bool{}
	var origins []topology.ASN
	prefixes := make([]bgp.Prefix, len(sensors))
	for i, s := range sensors {
		as := topo.RouterAS(s)
		prefixes[i] = bgp.PrefixFor(as)
		if !seen[as] {
			seen[as] = true
			origins = append(origins, as)
		}
	}
	n, err := New(topo, origins)
	if err != nil {
		t.Fatal(err)
	}
	return n, prefixes
}

// reprobeDirty applies scope to a baseline mesh: dirty pairs are re-traced
// on n, clean pairs keep the baseline path. It returns the patched mesh
// and the number of re-probed pairs.
func reprobeDirty(t *testing.T, n *Network, scope *DirtyScope, base *probe.Mesh, sensors []topology.RouterID, prefixes []bgp.Prefix) (*probe.Mesh, int) {
	t.Helper()
	out := base.Clone()
	var pairs [][2]int
	for i := range sensors {
		for j := range sensors {
			if i != j && scope.AffectsPath(base.Paths[i][j], prefixes[j]) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	err := probe.FillPairsCtx(context.Background(), out, pairs, 1, func(i, j int) *probe.Path {
		return n.Traceroute(sensors[i], sensors[j])
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out, len(pairs)
}

// meshEqual compares two meshes path-for-path (hop sequence and OK bit).
func meshEqual(a, b *probe.Mesh) bool {
	for i := range a.Paths {
		for j := range a.Paths[i] {
			pa, pb := a.Paths[i][j], b.Paths[i][j]
			if (pa == nil) != (pb == nil) {
				return false
			}
			if pa == nil {
				continue
			}
			if pa.OK != pb.OK || len(pa.Hops) != len(pb.Hops) {
				return false
			}
			for h := range pa.Hops {
				if pa.Hops[h] != pb.Hops[h] {
					return false
				}
			}
		}
	}
	return true
}

// TestDirtyScopeSoundness is the load-bearing guarantee of the delta mesh
// store: re-probing only the pairs AffectsPath marks dirty reproduces the
// full re-mesh exactly, over randomized single- and multi-fault deltas on
// both example topologies and a generated internet.
func TestDirtyScopeSoundness(t *testing.T) {
	type tc struct {
		name    string
		topo    *topology.Topology
		sensors []topology.RouterID
	}
	f1 := topology.BuildFig1()
	f2 := topology.BuildFig2()
	cases := []tc{
		{"fig1", f1.Topo, []topology.RouterID{f1.S1, f1.S2, f1.S3}},
		{"fig2", f2.Topo, []topology.RouterID{f2.S1, f2.S2, f2.S3}},
	}
	if res, err := topology.GenerateResearch(topology.DefaultResearchConfig(7)); err == nil {
		var sensors []topology.RouterID
		for i := 0; i < 6; i++ {
			sensors = append(sensors, res.Topo.AS(res.Stubs[i*17]).Routers[0])
		}
		cases = append(cases, tc{"research", res.Topo, sensors})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, prefixes := dirtyFixture(t, c.topo, c.sensors)
			base := n.Mesh(c.sensors)
			rng := rand.New(rand.NewSource(42))
			links := c.topo.Links()
			for trial := 0; trial < 30; trial++ {
				fork := n.Fork()
				faults := 1 + rng.Intn(2)
				for f := 0; f < faults; f++ {
					if rng.Intn(4) == 0 {
						r := topology.RouterID(rng.Intn(c.topo.NumRouters()))
						fork.FailRouter(r)
					} else {
						fork.FailLink(links[rng.Intn(len(links))].ID)
					}
				}
				scope, err := fork.ReconvergeDirtyCtx(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				patched, _ := reprobeDirty(t, fork, scope, base, c.sensors, prefixes)
				full := fork.Mesh(c.sensors)
				if !meshEqual(patched, full) {
					t.Fatalf("trial %d: delta re-probe diverged from full re-mesh", trial)
				}
			}
		})
	}
}

// TestDirtyScopeNoop pins the quiet-tick contract: reconverging with no
// actual fault change yields an Empty scope, so zero pairs re-probe.
func TestDirtyScopeNoop(t *testing.T) {
	f2 := topology.BuildFig2()
	sensors := []topology.RouterID{f2.S1, f2.S2, f2.S3}
	n, prefixes := dirtyFixture(t, f2.Topo, sensors)
	base := n.Mesh(sensors)

	// Mutator called, but the link is failed and restored before the
	// reconvergence: the delta against the base is empty.
	link := f2.Topo.Links()[0].ID
	n.FailLink(link)
	n.RestoreLink(link)
	scope, err := n.ReconvergeDirtyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !scope.Empty() {
		t.Fatalf("no-op delta not Empty: %+v", scope)
	}
	_, reprobed := reprobeDirty(t, n, scope, base, sensors, prefixes)
	if reprobed != 0 {
		t.Fatalf("no-op delta re-probed %d pairs, want 0", reprobed)
	}
}

// TestDirtyScopePruning pins the pruning power the streaming bench
// reports: a single backup-link withdrawal on fig2 re-probes under half
// of the ordered sensor pairs.
func TestDirtyScopePruning(t *testing.T) {
	f2 := topology.BuildFig2()
	sensors := []topology.RouterID{f2.S1, f2.S2, f2.S3}
	n, prefixes := dirtyFixture(t, f2.Topo, sensors)
	base := n.Mesh(sensors)

	link, ok := f2.Topo.LinkBetween(f2.R["y3"], f2.R["y4"])
	if !ok {
		t.Fatal("no y3-y4 link")
	}
	n.FailLink(link.ID)
	scope, err := n.ReconvergeDirtyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	patched, reprobed := reprobeDirty(t, n, scope, base, sensors, prefixes)
	if !meshEqual(patched, n.Mesh(sensors)) {
		t.Fatal("delta re-probe diverged from full re-mesh")
	}
	total := len(sensors) * (len(sensors) - 1)
	if 2*reprobed >= total {
		t.Fatalf("y3-y4 withdrawal re-probed %d/%d pairs, want < 50%%", reprobed, total)
	}
}

// TestDirtyScopeForceAll pins the unbounded cases: restorations and cold
// converges mark everything dirty.
func TestDirtyScopeForceAll(t *testing.T) {
	f2 := topology.BuildFig2()
	sensors := []topology.RouterID{f2.S1, f2.S2, f2.S3}
	n, _ := dirtyFixture(t, f2.Topo, sensors)

	link := f2.Topo.Links()[0].ID
	n.FailLink(link)
	if _, err := n.ReconvergeDirtyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	n.RestoreLink(link)
	scope, err := n.ReconvergeDirtyCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !scope.ForceAll {
		t.Fatal("restoration delta did not report ForceAll")
	}
	if !scope.AffectsPath(&probe.Path{OK: true}, "") {
		t.Fatal("ForceAll scope must mark every pair dirty")
	}
}
