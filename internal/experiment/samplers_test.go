package experiment

import (
	"math/rand"
	"testing"

	"netdiag/internal/topology"
)

func TestGroundTruthRouterFault(t *testing.T) {
	env, _ := testEnv(t, 15, 8, PlaceRandomStubs)
	rng := rand.New(rand.NewSource(3))
	f, ok := env.SampleRouterFault(rng)
	if !ok {
		t.Fatal("no router fault")
	}
	links, ases := env.GroundTruth(f)
	if len(links) == 0 {
		t.Fatal("a probed-path router must contribute probed links")
	}
	topo := env.Topo
	routerAS := topo.RouterAS(f.Routers[0])
	foundAS := false
	for _, a := range ases {
		if a == routerAS {
			foundAS = true
		}
	}
	if !foundAS {
		t.Fatalf("failed ASes %v must include the router's AS %d", ases, routerAS)
	}
	// Every ground-truth link must touch the failed router.
	for _, l := range links {
		ra, _ := topo.RouterByAddr(string(l.From))
		rb, _ := topo.RouterByAddr(string(l.To))
		if ra.ID != f.Routers[0] && rb.ID != f.Routers[0] {
			t.Fatalf("link %v does not touch failed router %d", l, f.Routers[0])
		}
	}
}

func TestSampleLinkFaultBounds(t *testing.T) {
	env, _ := testEnv(t, 16, 5, PlaceRandomStubs)
	rng := rand.New(rand.NewSource(4))
	if _, ok := env.SampleLinkFault(rng, len(env.PhysProbed)+1); ok {
		t.Fatal("sampling more links than probed must fail")
	}
	f, ok := env.SampleLinkFault(rng, 3)
	if !ok || len(f.Links) != 3 {
		t.Fatalf("3-link sample = %+v, %v", f, ok)
	}
	seen := map[topology.LinkID]bool{}
	for _, id := range f.Links {
		if seen[id] {
			t.Fatal("sampled links must be distinct")
		}
		seen[id] = true
	}
}

func TestSampleMisconfigPrefersSplitLinks(t *testing.T) {
	env, _ := testEnv(t, 17, 10, PlaceRandomStubs)
	rng := rand.New(rand.NewSource(5))
	splits := 0
	for trial := 0; trial < 10; trial++ {
		f, ok := env.SampleMisconfig(rng)
		if !ok {
			t.Skip("no misconfig candidates for this placement")
		}
		if len(f.Filters) == 0 {
			t.Fatal("misconfig without filters")
		}
		// All filters of one fault share the (router, peer) pair.
		for _, flt := range f.Filters[1:] {
			if flt.Router != f.Filters[0].Router || flt.Peer != f.Filters[0].Peer {
				t.Fatal("filter group must target a single session")
			}
		}
		groups := env.misconfigGroups(f.Filters[0].Router, f.Filters[0].Peer)
		if len(groups) >= 2 {
			splits++
		}
	}
	if splits == 0 {
		t.Log("no split-traffic sessions found with this placement (acceptable fallback)")
	}
}

func TestSampleMisconfigSinglePrefix(t *testing.T) {
	env, _ := testEnv(t, 18, 10, PlaceRandomStubs)
	rng := rand.New(rand.NewSource(6))
	f, ok := env.SampleMisconfigSinglePrefix(rng)
	if !ok {
		t.Skip("no misconfig candidates")
	}
	if len(f.Filters) != 1 {
		t.Fatalf("single-prefix variant must install exactly one filter, got %d", len(f.Filters))
	}
}

func TestPlaceSensorsDistantSplit(t *testing.T) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(19))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sensors, ases, err := PlaceSensors(res, PlaceDistantSplit, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sensors) != 8 || len(ases) != 8 {
		t.Fatalf("placement sizes: %d sensors %d ases", len(sensors), len(ases))
	}
	// The split variant should place at least one sensor outside the two
	// tier-2 ASes (on the inter-AS path).
	asSet := map[topology.ASN]int{}
	for _, a := range ases {
		asSet[a]++
	}
	if len(asSet) < 2 {
		t.Fatalf("placement collapsed to one AS: %v", asSet)
	}
}

func TestPlaceSensorsErrors(t *testing.T) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if _, _, err := PlaceSensors(res, PlaceRandomStubs, 10_000, rng); err == nil {
		t.Fatal("too many sensors must fail")
	}
	if _, _, err := PlaceSensors(res, Placement(99), 5, rng); err == nil {
		t.Fatal("unknown placement must fail")
	}
	if got := Placement(99).String(); got == "" {
		t.Fatal("unknown placement should still render")
	}
}

func TestRunTrialErrNoImpactRestoresNetwork(t *testing.T) {
	env, res := testEnv(t, 21, 6, PlaceRandomStubs)
	rng := rand.New(rand.NewSource(9))
	// Find a reroutable fault (no impact) and verify the env is healthy
	// afterwards.
	for trial := 0; trial < 100; trial++ {
		f, ok := env.SampleLinkFault(rng, 1)
		if !ok {
			t.Fatal("sample failed")
		}
		_, err := env.RunTrial(f, res.Cores[0], nil, nil)
		if err == ErrNoImpact {
			if env.Net.Mesh(env.Sensors).AnyFailed() {
				t.Fatal("network not restored after no-impact trial")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if env.Net.Mesh(env.Sensors).AnyFailed() {
			t.Fatal("network not restored after impactful trial")
		}
	}
	t.Skip("every sampled failure was impactful (unusual but possible)")
}

func TestGreedyPlacementRejectsTinyN(t *testing.T) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GreedyPlacement(res, 1, 4, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("n=1 must be rejected")
	}
}
