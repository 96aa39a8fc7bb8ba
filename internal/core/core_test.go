package core

import (
	"strings"
	"testing"

	"netdiag/internal/topology"
)

// tp builds a TracePath from hop specs: "name@AS" for identified hops,
// "*name" for unidentified hops.
func tp(src, dst int, ok bool, hops ...string) *TracePath {
	p := &TracePath{SrcSensor: src, DstSensor: dst, OK: ok}
	for _, h := range hops {
		if strings.HasPrefix(h, "*") {
			p.Hops = append(p.Hops, Hop{Node: Node(h), Unidentified: true})
			continue
		}
		name, asStr, found := strings.Cut(h, "@")
		as := 1
		if found {
			as = atoiOrPanic(asStr)
		}
		p.Hops = append(p.Hops, Hop{Node: Node(name), AS: topology.ASN(as)})
	}
	return p
}

func atoiOrPanic(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			panic("bad AS in test spec: " + s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func link(a, b string) Link { return Link{From: Node(a), To: Node(b)} }

func hypLinks(r *Result) map[Link]bool {
	out := map[Link]bool{}
	for _, h := range r.Hypothesis {
		out[h.Link] = true
	}
	return out
}

func physSet(r *Result) map[Link]bool {
	out := map[Link]bool{}
	for _, l := range r.PhysLinks() {
		out[l] = true
	}
	return out
}

func TestTomoFig1Chain(t *testing.T) {
	// The paper's Figure 1: s1->s2 breaks (r9-r11 failed), s1->s3 works.
	// Tomo must return exactly the four links the working path cannot
	// exonerate: r6-r7, r7-r9, r9-r11, r11-s2 (all tied at score 1).
	shared := []string{"s1", "r1", "r3", "r6"}
	toS2 := append(append([]string{}, shared...), "r7", "r9", "r11", "s2")
	toS3 := append(append([]string{}, shared...), "r8", "r10", "s3")
	m := &Measurements{
		NumSensors: 3,
		Before: []*TracePath{
			tp(0, 1, true, toS2...),
			tp(0, 2, true, toS3...),
		},
		After: []*TracePath{
			tp(0, 1, false, "s1", "r1", "r3", "r6", "r7", "r9"),
			tp(0, 2, true, toS3...),
		},
	}
	res, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Link{link("r6", "r7"), link("r7", "r9"), link("r9", "r11"), link("r11", "s2")}
	got := hypLinks(res)
	if len(got) != len(want) {
		t.Fatalf("H = %v, want %v", res.Hypothesis, want)
	}
	for _, l := range want {
		if !got[l] {
			t.Fatalf("H missing %v; got %v", l, res.Hypothesis)
		}
	}
	if res.UnexplainedFailures != 0 {
		t.Fatalf("unexplained = %d", res.UnexplainedFailures)
	}
}

func TestTomoMissesReroutedFailureNDEdgeCatchesIt(t *testing.T) {
	// Two simultaneous failures: (A,m) is rerouted around (pair 0-1 now
	// goes via n), (q,C) is non-recoverable (pair 0-2 fails). §2.5/§3.2.
	m := &Measurements{
		NumSensors: 3,
		Before: []*TracePath{
			tp(0, 1, true, "A", "m", "B"),
			tp(0, 2, true, "A", "q", "C"),
		},
		After: []*TracePath{
			tp(0, 1, true, "A", "n", "B"),
			tp(0, 2, false, "A"),
		},
	}
	tomo, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hypLinks(tomo)[link("A", "m")] {
		t.Fatal("Tomo should exonerate A->m (it only knows the pre-failure route of the working pair)")
	}
	edge, err := Run(m, Options{LogicalLinks: true, UseReroutes: true})
	if err != nil {
		t.Fatal(err)
	}
	got := hypLinks(edge)
	if !got[link("A", "m")] && !got[link("m", "B")] {
		t.Fatalf("ND-edge should blame the abandoned route, H = %v", edge.Hypothesis)
	}
	if !got[link("A", "q")] && !got[link("q", "C")] {
		t.Fatalf("ND-edge should also cover the failed path, H = %v", edge.Hypothesis)
	}
}

// fig2Meas crafts the paper's Figure 2/3 misconfiguration scenario: y1
// stops exporting C's route to x2, so s1->s3 fails while s1->s2 (same
// physical x2-y1 link) works.
func fig2Meas() *Measurements {
	p12 := []string{"s1@1", "a1@1", "a2@1", "x1@10", "x2@10", "y1@20", "y4@20", "b1@2", "b2@2", "s2@2"}
	p13 := []string{"s1@1", "a1@1", "a2@1", "x1@10", "x2@10", "y1@20", "y2@20", "y3@20", "c1@3", "c2@3", "s3@3"}
	p21 := []string{"s2@2", "b2@2", "b1@2", "y4@20", "y1@20", "x2@10", "x1@10", "a2@1", "a1@1", "s1@1"}
	p31 := []string{"s3@3", "c2@3", "c1@3", "y3@20", "y2@20", "y1@20", "x2@10", "x1@10", "a2@1", "a1@1", "s1@1"}
	p23 := []string{"s2@2", "b2@2", "b1@2", "y4@20", "y3@20", "c1@3", "c2@3", "s3@3"}
	p32 := []string{"s3@3", "c2@3", "c1@3", "y3@20", "y4@20", "b1@2", "b2@2", "s2@2"}
	mk := func(specs [][]string, pairs [][2]int, ok []bool) []*TracePath {
		var out []*TracePath
		for i, s := range specs {
			out = append(out, tp(pairs[i][0], pairs[i][1], ok[i], s...))
		}
		return out
	}
	specs := [][]string{p12, p13, p21, p31, p23, p32}
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 0}, {2, 0}, {1, 2}, {2, 1}}
	before := mk(specs, pairs, []bool{true, true, true, true, true, true})
	// After: s1->s3 fails at x2 (no route); everything else unchanged.
	after := mk(specs, pairs, []bool{true, false, true, true, true, true})
	after[1] = tp(0, 2, false, "s1@1", "a1@1", "a2@1", "x1@10", "x2@10")
	return &Measurements{NumSensors: 3, Before: before, After: after}
}

func TestMisconfigTomoFailsNDEdgeSucceeds(t *testing.T) {
	m := fig2Meas()
	// Ground truth: the "partially failed" physical link is x2->y1.
	f := link("x2", "y1")

	tomo, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hypLinks(tomo)[f] {
		t.Fatal("Tomo cannot see a partial failure of a link on a working path (§2.5 item 1)")
	}

	edge, err := Run(m, Options{LogicalLinks: true, UseReroutes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !physSet(edge)[f] {
		t.Fatalf("ND-edge must localize the misconfigured physical link %v; phys = %v, H = %v",
			f, edge.PhysLinks(), edge.Hypothesis)
	}
	// The logical links in H must be the (C)-tagged ones through y1.
	foundLogical := false
	for _, h := range edge.Hypothesis {
		if IsLogical(h.Link.From) || IsLogical(h.Link.To) {
			foundLogical = true
			if d := Display(h.Link.From) + "->" + Display(h.Link.To); !strings.Contains(d, "y1(3)") {
				t.Fatalf("unexpected logical hypothesis link %s", d)
			}
		}
	}
	if !foundLogical {
		t.Fatalf("expected logical links in H, got %v", edge.Hypothesis)
	}
	// Specificity should be much better than blaming the whole suffix:
	// the (B)-tagged logicals and the y-internal links carry working
	// paths, so H stays small.
	if len(edge.Hypothesis) > 4 {
		t.Fatalf("H too large for a single misconfiguration: %v", edge.Hypothesis)
	}
}

func TestWithdrawalTrimming(t *testing.T) {
	// §3.3 example: s2->s1 and s3->s1 fail; x1 receives a withdrawal from
	// a2 for s1's prefix. Links upstream of (and including) x1->a2 must
	// leave the hypothesis.
	m := fig2Meas()
	// Rewrite the failure: a1-s1 link dies; both reverse paths to s1 fail.
	for i := range m.After {
		p := m.After[i]
		if p.DstSensor == 0 {
			m.After[i] = &TracePath{
				SrcSensor: p.SrcSensor, DstSensor: 0, OK: false,
				Hops: p.Hops[:len(p.Hops)-1], // stops before s1
			}
		} else {
			// restore the misconfig change from fig2Meas: all other
			// paths work unchanged.
			cp := *m.Before[i]
			m.After[i] = &cp
		}
	}
	ri := &RoutingInfo{
		ASX: 10,
		Withdrawals: []Withdrawal{
			{At: "x1", From: "a2", DstSensors: []int{0}},
		},
	}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: ri})
	if err != nil {
		t.Fatal(err)
	}
	phys := physSet(res)
	for _, banned := range []Link{link("y1", "x2"), link("x2", "x1"), link("y4", "y1")} {
		if phys[banned] {
			t.Fatalf("withdrawal should exonerate %v; phys = %v", banned, res.PhysLinks())
		}
	}
	// The withdrawal edge x1->a2 itself may remain ONLY as the logical
	// hypothesis "a2 stopped announcing s1's prefix to x1" — never as a
	// plain physical-failure suspect (the withdrawal arrived over it, so
	// the session is up).
	for _, h := range res.Hypothesis {
		if h.Link == link("x1", "a2") {
			t.Fatalf("physical x1->a2 must be exonerated; H = %v", res.Hypothesis)
		}
	}
	if !phys[link("a2", "a1")] && !phys[link("a1", "s1")] {
		t.Fatalf("H must retain the downstream suffix; phys = %v", res.PhysLinks())
	}

	// Without the withdrawal, the upstream links stay in H (bigger set).
	plain, err := Run(m, Options{LogicalLinks: true, UseReroutes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.PhysLinks()) <= len(res.PhysLinks()) {
		t.Fatalf("withdrawals should shrink the hypothesis: %d vs %d",
			len(plain.PhysLinks()), len(res.PhysLinks()))
	}
}

func TestIGPDownGoesStraightToHypothesis(t *testing.T) {
	m := &Measurements{
		NumSensors: 2,
		Before:     []*TracePath{tp(0, 1, true, "s1@1", "x1@10", "x2@10", "s2@2")},
		After:      []*TracePath{tp(0, 1, false, "s1@1")},
	}
	ri := &RoutingInfo{ASX: 10, IGPDownLinks: []Link{link("x1", "x2"), link("x2", "x1")}}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: ri})
	if err != nil {
		t.Fatal(err)
	}
	got := hypLinks(res)
	if !got[link("x1", "x2")] {
		t.Fatalf("IGP-down link missing from H: %v", res.Hypothesis)
	}
	// The failure set is explained by the IGP link; greedy must not add
	// the other links of the failed path.
	if got[link("s1", "x1")] || got[link("x2", "s2")] {
		t.Fatalf("IGP evidence should make H exact: %v", res.Hypothesis)
	}
	// The reverse direction never appears on any path: it must be skipped.
	if got[link("x2", "x1")] {
		t.Fatalf("unprobed direction should not enter H: %v", res.Hypothesis)
	}
}

// tableLG is a scripted LookingGlass for tests.
type tableLG struct {
	avail map[topology.ASN]bool
	paths map[topology.ASN]map[int][]topology.ASN
}

func (t *tableLG) Available(as topology.ASN) bool { return t.avail[as] }
func (t *tableLG) ASPath(from topology.ASN, dst int) ([]topology.ASN, bool) {
	p, ok := t.paths[from][dst]
	return p, ok
}

func TestNDLGMapsUHsAndClusters(t *testing.T) {
	// Two failed paths cross blocked AS 20 between AS 10 and AS 30; the
	// hidden failed link is inside AS 20. ND-LG must blame AS 20.
	m := &Measurements{
		NumSensors: 4,
		Before: []*TracePath{
			tp(0, 1, true, "s1@10", "x@10", "*u1", "*u2", "z@30", "s2@30"),
			tp(2, 3, true, "s3@10", "x@10", "*u3", "*u4", "z@30", "s4@30"),
		},
		After: []*TracePath{
			tp(0, 1, false, "s1@10", "x@10"),
			tp(2, 3, false, "s3@10", "x@10"),
		},
	}
	lg := &tableLG{
		avail: map[topology.ASN]bool{10: true},
		paths: map[topology.ASN]map[int][]topology.ASN{
			10: {
				1: {10, 20, 30},
				3: {10, 20, 30},
			},
		},
	}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: &RoutingInfo{ASX: 10}, LG: lg, KeepUnidentified: true})
	if err != nil {
		t.Fatal(err)
	}
	ases := res.ASes()
	found := false
	for _, a := range ases {
		if a == 20 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ND-LG should attribute the failure to AS 20; ASes = %v, H = %v", ases, res.Hypothesis)
	}
	// Clustering should let one pick (plus its cluster) explain both
	// failures: expect few greedy iterations and a compact H.
	if res.UnexplainedFailures != 0 {
		t.Fatalf("unexplained failures: %d", res.UnexplainedFailures)
	}
}

func TestNDLGAmbiguousTag(t *testing.T) {
	// The AS path crosses two blocked ASes (20, 25) back to back: UHs get
	// the combined tag {20,25}, exactly the paper's {B,D} case.
	m := &Measurements{
		NumSensors: 2,
		Before: []*TracePath{
			tp(0, 1, true, "s1@10", "x@10", "*u1", "*u2", "z@30", "s2@30"),
		},
		After: []*TracePath{
			tp(0, 1, false, "s1@10", "x@10"),
		},
	}
	lg := &tableLG{
		avail: map[topology.ASN]bool{10: true},
		paths: map[topology.ASN]map[int][]topology.ASN{
			10: {1: {10, 20, 25, 30}},
		},
	}
	res, err := Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: &RoutingInfo{ASX: 10}, LG: lg, KeepUnidentified: true})
	if err != nil {
		t.Fatal(err)
	}
	ases := res.ASes()
	has20, has25 := false, false
	for _, a := range ases {
		if a == 20 {
			has20 = true
		}
		if a == 25 {
			has25 = true
		}
	}
	if !has20 || !has25 {
		t.Fatalf("ambiguous run should carry both candidate ASes, got %v", ases)
	}
}

func TestSCFSFig1(t *testing.T) {
	shared := []string{"s1", "r1", "r3", "r6"}
	toS2 := append(append([]string{}, shared...), "r7", "r9", "r11", "s2")
	toS3 := append(append([]string{}, shared...), "r8", "r10", "s3")
	// s2 bad, s3 good: SCFS marks only the link nearest the source on the
	// bad branch: r6->r7.
	got, err := SCFS([]*TracePath{tp(0, 1, false, toS2...), tp(0, 2, true, toS3...)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != link("r6", "r7") {
		t.Fatalf("SCFS = %v, want [r6->r7]", got)
	}
	// Both bad: blame the single link below the source.
	got, err = SCFS([]*TracePath{tp(0, 1, false, toS2...), tp(0, 2, false, toS3...)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != link("s1", "r1") {
		t.Fatalf("SCFS = %v, want [s1->r1]", got)
	}
	// All good: empty.
	got, err = SCFS([]*TracePath{tp(0, 1, true, toS2...), tp(0, 2, true, toS3...)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("SCFS on healthy tree = %v, want empty", got)
	}
}

func TestSCFSErrors(t *testing.T) {
	if _, err := SCFS([]*TracePath{
		tp(0, 1, true, "a", "b"),
		tp(1, 2, true, "a", "c"),
	}); err == nil {
		t.Fatal("SCFS must reject multiple sources")
	}
	if _, err := SCFS([]*TracePath{
		tp(0, 1, true, "a", "b", "d"),
		tp(0, 2, true, "a", "c", "d", "e"),
	}); err == nil {
		t.Fatal("SCFS must reject non-tree path sets")
	}
}

func TestDiagnosability(t *testing.T) {
	// Chain: both links carried by exactly the same single path ->
	// 1 distinct hitting set over 2 links: D = 0.5.
	paths := []*TracePath{tp(0, 1, true, "a", "b", "c")}
	if d := Diagnosability(paths); d != 0.5 {
		t.Fatalf("D = %v, want 0.5", d)
	}
	// Add a path covering only a->b: hitting sets become distinct: D = 1.
	paths = append(paths, tp(0, 2, true, "a", "b"))
	if d := Diagnosability(paths); d != 1.0 {
		t.Fatalf("D = %v, want 1.0", d)
	}
	if d := Diagnosability(nil); d != 0 {
		t.Fatalf("D(empty) = %v, want 0", d)
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	m := &Measurements{NumSensors: 2, After: []*TracePath{tp(0, 5, true, "a", "b")}}
	if err := m.Validate(); err == nil {
		t.Fatal("out-of-range sensor must fail validation")
	}
	m = &Measurements{
		NumSensors: 2,
		After:      []*TracePath{tp(0, 1, true, "a", "b")},
	}
	if err := m.Validate(); err == nil {
		t.Fatal("after-path without before measurement must fail validation")
	}
	m = &Measurements{
		NumSensors: 2,
		Before:     []*TracePath{{SrcSensor: 0, DstSensor: 1, OK: true}},
	}
	if err := m.Validate(); err == nil {
		t.Fatal("empty hop list must fail validation")
	}
}

func TestDisplayAndIsLogical(t *testing.T) {
	n := logicalNodeName("x2", "y1", "3")
	if !IsLogical(n) {
		t.Fatalf("%q should be logical", n)
	}
	if got := Display(n); got != "y1(3)" {
		t.Fatalf("Display = %q, want y1(3)", got)
	}
	if IsLogical("y1") || Display("y1") != "y1" {
		t.Fatal("plain nodes must pass through Display unchanged")
	}
}

func TestPathsEquivalentAndLinksNotIn(t *testing.T) {
	a := tp(0, 1, true, "a", "*u1", "b")
	b := tp(0, 1, true, "a", "*u2", "b")
	if !pathsEquivalent(a, b) {
		t.Fatal("aligned UHs should make paths equivalent")
	}
	c := tp(0, 1, true, "a", "c", "b")
	if pathsEquivalent(a, c) {
		t.Fatal("UH vs identified hop must differ")
	}
	diff := linksNotIn(c.Links(), tp(0, 1, true, "a", "c", "d").Links())
	if len(diff) != 1 || diff[0] != link("c", "b") {
		t.Fatalf("linksNotIn = %v", diff)
	}
}

func TestUnexplainableFailureReported(t *testing.T) {
	// The failed path's every link also lies on a working path:
	// inconsistent observations leave the failure unexplained.
	m := &Measurements{
		NumSensors: 3,
		Before: []*TracePath{
			tp(0, 1, true, "a", "b"),
			tp(0, 2, true, "a", "b"),
		},
		After: []*TracePath{
			tp(0, 1, false, "a"),
			tp(0, 2, true, "a", "b"),
		},
	}
	res, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnexplainedFailures != 1 {
		t.Fatalf("unexplained = %d, want 1", res.UnexplainedFailures)
	}
	if len(res.Hypothesis) != 0 {
		t.Fatalf("H should be empty, got %v", res.Hypothesis)
	}
}

func TestPartialTracesExtension(t *testing.T) {
	// The failed traceroute still reached m: with the extension the a->m
	// links are exonerated, shrinking H to the suffix.
	m := &Measurements{
		NumSensors: 2,
		Before:     []*TracePath{tp(0, 1, true, "a", "m", "q", "b")},
		After:      []*TracePath{tp(0, 1, false, "a", "m")},
	}
	plain, err := Run(m, Options{UseReroutes: true})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Run(m, Options{UseReroutes: true, UsePartialTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Hypothesis) >= len(plain.Hypothesis) {
		t.Fatalf("partial traces should shrink H: %d vs %d", len(ext.Hypothesis), len(plain.Hypothesis))
	}
	if hypLinks(ext)[link("a", "m")] {
		t.Fatal("responding prefix link must be exonerated")
	}
}
