package core

import (
	"testing"

	"netdiag/internal/topology"
)

// TestLGFirstAvailableOnPath verifies query-ordering: the source AS's LG
// is unavailable, so the mapper falls back to the next identified AS on
// the path whose LG can align the run — the paper's "first available
// Looking Glass on the path" rule.
func TestLGFirstAvailableOnPath(t *testing.T) {
	m := &Measurements{
		NumSensors: 2,
		Before: []*TracePath{
			tp(0, 1, true, "s0@10", "x@10", "m@15", "*u1", "z@30", "s1@30"),
		},
		After: []*TracePath{
			tp(0, 1, false, "s0@10", "x@10"),
		},
	}
	lg := &tableLG{
		avail: map[topology.ASN]bool{15: true}, // only the mid-path AS
		paths: map[topology.ASN]map[int][]topology.ASN{
			15: {1: {15, 20, 30}},
		},
	}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: &RoutingInfo{ASX: 99}, LG: lg, KeepUnidentified: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.ASes() {
		if a == 20 {
			found = true
		}
	}
	if !found {
		t.Fatalf("mid-path LG should map the UH run to AS 20; ASes = %v", res.ASes())
	}
}

// TestLGNoAlignmentLeavesUntagged verifies graceful degradation: when no
// available LG can align a UH run, the links stay untagged and never
// cluster, but the failure is still explained.
func TestLGNoAlignmentLeavesUntagged(t *testing.T) {
	m := &Measurements{
		NumSensors: 2,
		Before: []*TracePath{
			tp(0, 1, true, "s0@10", "x@10", "*u1", "z@30", "s1@30"),
		},
		After: []*TracePath{
			tp(0, 1, false, "s0@10", "x@10"),
		},
	}
	lg := &tableLG{
		avail: map[topology.ASN]bool{10: true},
		paths: map[topology.ASN]map[int][]topology.ASN{
			// The LG's view disagrees entirely (no AS 30 in it): the run
			// cannot be aligned.
			10: {1: {10, 77}},
		},
	}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: &RoutingInfo{ASX: 10}, LG: lg, KeepUnidentified: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnexplainedFailures != 0 {
		t.Fatal("failure must still be explained by the untagged candidates")
	}
}

// TestLGAdjacentInLGPath verifies the whole-AS-blocking consistency check:
// an LG path showing the bounding ASes adjacent cannot explain hidden hops
// between them, so that LG is skipped.
func TestLGAdjacentInLGPath(t *testing.T) {
	m := &Measurements{
		NumSensors: 2,
		Before: []*TracePath{
			tp(0, 1, true, "s0@10", "x@10", "*u1", "z@30", "s1@30"),
		},
		After: []*TracePath{
			tp(0, 1, false, "s0@10", "x@10"),
		},
	}
	lg := &tableLG{
		avail: map[topology.ASN]bool{10: true, 30: true},
		paths: map[topology.ASN]map[int][]topology.ASN{
			10: {1: {10, 30}}, // adjacent: inconsistent with the UHs
			30: {1: {30}},     // origin view: useless for alignment
		},
	}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: &RoutingInfo{ASX: 10}, LG: lg, KeepUnidentified: true})
	if err != nil {
		t.Fatal(err)
	}
	// No tag is derivable; the diagnosis still runs.
	for _, h := range res.Hypothesis {
		for _, a := range h.ASes {
			if a != 10 && a != 30 {
				t.Fatalf("unexpected tag %d from inconsistent LG", a)
			}
		}
	}
}

// TestScoreWeightPreferenceOrdersPicks verifies a > b makes failure
// evidence dominate reroute evidence in the greedy ordering.
func TestScoreWeightPreferenceOrdersPicks(t *testing.T) {
	// One failed path {A->q} and two rerouted paths abandoning {A->m}.
	m := &Measurements{
		NumSensors: 4,
		Before: []*TracePath{
			tp(0, 1, true, "A", "m", "B"),
			tp(0, 3, true, "A", "m", "D"),
			tp(0, 2, true, "A", "q", "C"),
		},
		After: []*TracePath{
			tp(0, 1, true, "A", "n", "B"),
			tp(0, 3, true, "A", "n", "D"),
			tp(0, 2, false, "A"),
		},
	}
	// With a=10, b=1: the failed path's links (score 10) beat A->m
	// (score 2) in the first iteration.
	res, err := Run(m, Options{UseReroutes: true, FailureWeight: 10, RerouteWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("weighted run should need two iterations, got %d", res.Iterations)
	}
	got := hypLinks(res)
	if !got[link("A", "q")] && !got[link("q", "C")] {
		t.Fatalf("failure evidence missing from H: %v", res.Hypothesis)
	}
	if !got[link("A", "m")] {
		t.Fatalf("reroute evidence should still be explained eventually: %v", res.Hypothesis)
	}
}

// TestEndpointKeyBehavior pins the clustering key rules: identified
// endpoints compare by node, UHs by tag, and missing tags invalidate.
func TestEndpointKeyBehavior(t *testing.T) {
	tags := map[Node]asTag{"*u1": {20}, "*u2": {20}, "*u3": {21}}
	k1 := makeEndpointKey("*u1", true, tags)
	k2 := makeEndpointKey("*u2", true, tags)
	k3 := makeEndpointKey("*u3", true, tags)
	if !k1.ok || k1 != k2 {
		t.Fatal("same-tag UHs must share a key")
	}
	if k1 == k3 {
		t.Fatal("different tags must differ")
	}
	if k := makeEndpointKey("*u9", true, tags); k.ok {
		t.Fatal("untagged UH must be invalid")
	}
	ka := makeEndpointKey("r1", false, tags)
	kb := makeEndpointKey("r2", false, tags)
	if !ka.ok || ka == kb {
		t.Fatal("identified endpoints compare by node")
	}
	if ka == k1 {
		t.Fatal("identified vs UH keys must differ")
	}
}
