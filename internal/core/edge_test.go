package core

import (
	"testing"

	"netdiag/internal/topology"
)

// Edge-case tests complementing core_test.go.

func TestPerPrefixLogicalLocalizesSinglePrefixMisconfig(t *testing.T) {
	// Two destinations (sensors 1 and 2) sit behind the same out-neighbor
	// AS 30 of router b (AS 20). b filters only sensor 2's prefix towards
	// a: at per-neighbor granularity the (30)-tagged logical link still
	// carries sensor 1's working path, so the misconfiguration is
	// invisible; per-prefix granularity localizes it.
	p01 := []string{"s0@10", "a@10", "b@20", "c@30", "s1@30"}
	p02 := []string{"s0@10", "a@10", "b@20", "c@30", "d@31", "s2@31"}
	m := &Measurements{
		NumSensors: 3,
		Before: []*TracePath{
			tp(0, 1, true, p01...),
			tp(0, 2, true, p02...),
		},
		After: []*TracePath{
			tp(0, 1, true, p01...),
			tp(0, 2, false, "s0@10", "a@10"),
		},
	}
	f := link("a", "b")

	neigh, err := Run(m, Options{LogicalLinks: true, UseReroutes: true})
	if err != nil {
		t.Fatal(err)
	}
	if physSet(neigh)[f] {
		t.Fatalf("per-neighbor granularity should NOT localize a single-prefix filter here; phys=%v",
			neigh.PhysLinks())
	}
	pref, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, PerPrefixLogical: true})
	if err != nil {
		t.Fatal(err)
	}
	if !physSet(pref)[f] {
		t.Fatalf("per-prefix granularity must localize the filtered link; phys=%v H=%v",
			pref.PhysLinks(), pref.Hypothesis)
	}
}

func TestExpandedSizeGrowsWithGranularity(t *testing.T) {
	p01 := []string{"s0@10", "a@10", "b@20", "s1@20"}
	p02 := []string{"s0@10", "a@10", "b@20", "c@30", "s2@30"}
	m := &Measurements{
		NumSensors: 3,
		Before:     []*TracePath{tp(0, 1, true, p01...), tp(0, 2, true, p02...)},
		After:      []*TracePath{tp(0, 1, true, p01...), tp(0, 2, true, p02...)},
	}
	_, neigh := ExpandedSize(m, false)
	_, pref := ExpandedSize(m, true)
	if pref < neigh {
		t.Fatalf("per-prefix graph (%d links) should not be smaller than per-neighbor (%d)", pref, neigh)
	}
	raw := 0
	seen := linkSet{}
	for _, p := range m.Before {
		for _, l := range p.Links() {
			if !seen.has(l) {
				seen.add(l)
				raw++
			}
		}
	}
	if neigh <= raw {
		t.Fatalf("expansion should add links: %d expanded vs %d raw", neigh, raw)
	}
}

func TestExpansionSkipsUnidentifiedEndpoints(t *testing.T) {
	// The a->* hop pair crosses ASes but the far endpoint is a UH:
	// expansion must keep the link physical (no logical node inserted).
	m := &Measurements{
		NumSensors: 2,
		Before:     []*TracePath{tp(0, 1, true, "s0@10", "a@10", "*u1", "b@30", "s1@30")},
		After:      []*TracePath{tp(0, 1, false, "s0@10")},
	}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, KeepUnidentified: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hypothesis {
		if IsLogical(h.Link.From) || IsLogical(h.Link.To) {
			t.Fatalf("no logical links should exist around UHs: %v", h.Link)
		}
	}
	if res.UnexplainedFailures != 0 {
		t.Fatal("the failure must still be explained")
	}
}

func TestWithdrawalIgnoredWhenEdgeNotOnPath(t *testing.T) {
	m := &Measurements{
		NumSensors: 2,
		Before:     []*TracePath{tp(0, 1, true, "a", "b", "c")},
		After:      []*TracePath{tp(0, 1, false, "a")},
	}
	// Withdrawal names nodes not on the path: no trimming, H must still
	// explain the failure with the path's links.
	ri := &RoutingInfo{ASX: 1, Withdrawals: []Withdrawal{{At: "x", From: "y", DstSensors: []int{1}}}}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: ri})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hypothesis) == 0 || res.UnexplainedFailures != 0 {
		t.Fatalf("failure unexplained: H=%v unexplained=%d", res.Hypothesis, res.UnexplainedFailures)
	}
	// Withdrawal in the wrong order (From precedes At) must not trim.
	m2 := &Measurements{
		NumSensors: 2,
		Before:     []*TracePath{tp(0, 1, true, "a", "b", "c")},
		After:      []*TracePath{tp(0, 1, false, "a")},
	}
	ri2 := &RoutingInfo{ASX: 1, Withdrawals: []Withdrawal{{At: "c", From: "a", DstSensors: []int{1}}}}
	res2, err := Run(m2, Options{LogicalLinks: true, UseReroutes: true, Routing: ri2})
	if err != nil {
		t.Fatal(err)
	}
	got := hypLinks(res2)
	if !got[link("a", "b")] && !got[link("b", "c")] {
		t.Fatalf("reverse-order withdrawal must not exonerate the path: %v", res2.Hypothesis)
	}
}

func TestWithdrawalTrimmingEntirePathUnexplained(t *testing.T) {
	// The withdrawal edge is the last link of the path: everything is
	// exonerated and the failure becomes unexplainable — the troubleshooter
	// reports it instead of inventing links.
	m := &Measurements{
		NumSensors: 2,
		Before:     []*TracePath{tp(0, 1, true, "a", "b", "c")},
		After:      []*TracePath{tp(0, 1, false, "a")},
	}
	ri := &RoutingInfo{ASX: 1, Withdrawals: []Withdrawal{{At: "b", From: "c", DstSensors: []int{1}}}}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: ri})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnexplainedFailures != 1 {
		t.Fatalf("fully trimmed failure set should be reported unexplained, got %d (H=%v)",
			res.UnexplainedFailures, res.Hypothesis)
	}
}

func TestClusteringRequiresMatchingTags(t *testing.T) {
	// Two failed paths cross different blocked ASes (20 and 25). Their UH
	// links must NOT cluster, and both ASes end up in the hypothesis.
	m := &Measurements{
		NumSensors: 4,
		Before: []*TracePath{
			tp(0, 1, true, "s0@10", "x@10", "*u1", "z@30", "s1@30"),
			tp(2, 3, true, "s2@11", "y@11", "*u2", "w@31", "s3@31"),
		},
		After: []*TracePath{
			tp(0, 1, false, "s0@10", "x@10"),
			tp(2, 3, false, "s2@11", "y@11"),
		},
	}
	lg := &tableLG{
		avail: map[topology.ASN]bool{10: true, 11: true},
		paths: map[topology.ASN]map[int][]topology.ASN{
			10: {1: {10, 20, 30}},
			11: {3: {11, 25, 31}},
		},
	}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: &RoutingInfo{ASX: 10}, LG: lg, KeepUnidentified: true})
	if err != nil {
		t.Fatal(err)
	}
	ases := map[topology.ASN]bool{}
	for _, a := range res.ASes() {
		ases[a] = true
	}
	if !ases[20] || !ases[25] {
		t.Fatalf("both blocked ASes must be suspected, got %v", res.ASes())
	}
	// The UH links must not have clustered: explaining both failures
	// requires at least two distinct hypothesis links (ties may land in
	// one greedy iteration, but never in one link).
	if len(res.Hypothesis) < 2 {
		t.Fatalf("incompatible UH links should not cluster; H=%v", res.Hypothesis)
	}
}

func TestWithdrawalKeepsMisconfigLogicalLink(t *testing.T) {
	// The withdrawal edge IS the misconfigured link: x2 heard a
	// withdrawal from y1 for sensor 2's prefix because y1's export filter
	// dropped it. The logical link y1(tag)->y1 must survive the trimming
	// and carry the physical attribution x2->y1.
	m := fig2Meas()
	ri := &RoutingInfo{
		ASX:         10,
		Withdrawals: []Withdrawal{{At: "x2", From: "y1", DstSensors: []int{2}}},
	}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: ri})
	if err != nil {
		t.Fatal(err)
	}
	if !physSet(res)[link("x2", "y1")] {
		t.Fatalf("misconfigured physical link must stay suspect; phys=%v H=%v",
			res.PhysLinks(), res.Hypothesis)
	}
	// The upstream physical links are still exonerated.
	for _, banned := range []Link{link("x1", "x2"), link("a2", "x1"), link("a1", "a2")} {
		if physSet(res)[banned] {
			t.Fatalf("upstream link %v must be exonerated", banned)
		}
	}
}

func TestGreedyTieAddsAllMaxScoreLinks(t *testing.T) {
	// Algorithm 1 lines 12-17: every link tied at the maximum score joins
	// H in the same iteration.
	m := &Measurements{
		NumSensors: 2,
		Before:     []*TracePath{tp(0, 1, true, "a", "b", "c", "d")},
		After:      []*TracePath{tp(0, 1, false, "a")},
	}
	res, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("a single tied failure set should resolve in 1 iteration, got %d", res.Iterations)
	}
	if len(res.Hypothesis) != 3 {
		t.Fatalf("all 3 tied links belong in H, got %v", res.Hypothesis)
	}
}

func TestGreedyPrefersHigherCoverage(t *testing.T) {
	// Link a->x explains both failures; the per-path suffixes explain one
	// each. The greedy must pick a->x first and stop.
	m := &Measurements{
		NumSensors: 3,
		Before: []*TracePath{
			tp(0, 1, true, "a", "x", "b"),
			tp(0, 2, true, "a", "x", "c"),
		},
		After: []*TracePath{
			tp(0, 1, false, "a"),
			tp(0, 2, false, "a"),
		},
	}
	res, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := hypLinks(res)
	if !got[link("a", "x")] {
		t.Fatalf("shared link must be chosen: %v", res.Hypothesis)
	}
	if len(res.Hypothesis) != 1 {
		t.Fatalf("greedy should stop after the shared link, got %v", res.Hypothesis)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestPerPrefixDisplay(t *testing.T) {
	m := &Measurements{
		NumSensors: 2,
		Before:     []*TracePath{tp(0, 1, true, "s0@10", "a@10", "b@20", "s1@20")},
		After:      []*TracePath{tp(0, 1, false, "s0@10")},
	}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, PerPrefixLogical: true})
	if err != nil {
		t.Fatal(err)
	}
	sawLogical := false
	for _, h := range res.Hypothesis {
		if IsLogical(h.Link.From) {
			sawLogical = true
			if d := Display(h.Link.From); d != "b(p1)" {
				t.Fatalf("per-prefix display = %q, want b(p1)", d)
			}
		}
	}
	if !sawLogical {
		t.Fatalf("per-prefix expansion should produce logical links: %v", res.Hypothesis)
	}
}
