package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// refExpandedSize counts the graph of the reference string expander: the
// definition ExpandedSize must keep.
func refExpandedSize(m *Measurements, perPrefix bool) (nodes, links int) {
	work := newExpander(perPrefix).expandAll(m)
	nodeSet := map[Node]struct{}{}
	edgeSet := linkSet{}
	for _, paths := range [][]*TracePath{work.Before, work.After} {
		for _, p := range paths {
			for _, h := range p.Hops {
				nodeSet[h.Node] = struct{}{}
			}
			for _, l := range p.Links() {
				edgeSet.add(l)
			}
		}
	}
	return len(nodeSet), len(edgeSet)
}

// TestExpandedSizeMatchesReference checks the ID expansion builds the
// graph the string expander builds, at both tag granularities.
func TestExpandedSizeMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		m := synthMeasurements(12, 8, seed)
		for _, perPrefix := range []bool{false, true} {
			n, l := ExpandedSize(m, perPrefix)
			rn, rl := refExpandedSize(m, perPrefix)
			if n != rn || l != rl {
				t.Errorf("seed %d perPrefix %v: ExpandedSize = (%d, %d), reference (%d, %d)",
					seed, perPrefix, n, l, rn, rl)
			}
		}
	}
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNumSensorsSizesNothing checks NumSensors, which validation does not
// bound from above, sizes no allocation: a huge or negative count costs
// what the paths cost.
func TestNumSensorsSizesNothing(t *testing.T) {
	p := tp(0, 1, true, "a@1", "b@2")
	mesh := func(n int) *Measurements {
		return &Measurements{NumSensors: n, Before: []*TracePath{p}, After: []*TracePath{p}}
	}
	small := allocBytes(func() { ExpandedSize(mesh(2), false) })
	for _, n := range []int{1 << 20, -1} {
		var nodes, links int
		got := allocBytes(func() { nodes, links = ExpandedSize(mesh(n), false) })
		if nodes != 3 || links != 2 {
			t.Fatalf("NumSensors %d: ExpandedSize = (%d, %d), want (3, 2)", n, nodes, links)
		}
		if got > small+64<<10 {
			t.Errorf("NumSensors %d: ExpandedSize allocated %d bytes, %d at NumSensors 2", n, got, small)
		}
	}
}

// TestNodeTableMatchesCollectNodes checks the ID node rules against the
// reference's collectNodes over the expanded copy: a node's AS is its last
// identified sighting, it is unidentified if any sighting is, and a
// logical node takes v's hop AS.
func TestNodeTableMatchesCollectNodes(t *testing.T) {
	m := &Measurements{
		NumSensors: 3,
		Before: []*TracePath{
			tp(0, 1, true, "s0@1", "a@1", "b@2", "s1@2"),
			tp(0, 2, true, "s0@1", "a@1", "*b", "c@3", "s2@3"),
		},
		After: []*TracePath{
			tp(0, 1, true, "s0@1", "a@1", "b@4", "s1@2"),
			tp(0, 2, false, "s0@1", "a@1"),
		},
	}
	for _, perPrefix := range []bool{false, true} {
		x := readMesh(m)
		x.expand(m, perPrefix)
		ref := &refEngine{nodeAS: map[Node]topology.ASN{}, nodeUH: map[Node]bool{}}
		ref.collectNodes(newExpander(perPrefix).expandAll(m))
		names := map[Node]bool{}
		for n := range ref.nodeAS {
			names[n] = true
		}
		for n := range ref.nodeUH {
			names[n] = true
		}
		if x.nodes.size() != len(names) {
			t.Fatalf("perPrefix %v: %d nodes, reference %v", perPrefix, x.nodes.size(), names)
		}
		for id := int32(0); int(id) < x.nodes.size(); id++ {
			n := x.nodes.name(id)
			if x.nodes.uh[id] != ref.nodeUH[n] {
				t.Errorf("perPrefix %v: %s unidentified = %v, reference %v", perPrefix, n, x.nodes.uh[id], ref.nodeUH[n])
			}
			if as, ok := ref.nodeAS[n]; ok && x.nodes.as[id] != as {
				t.Errorf("perPrefix %v: %s AS = %d, reference %d", perPrefix, n, x.nodes.as[id], as)
			}
		}
	}
}

// TestRunCtxCancelledSkipsFrontHalf checks a cancelled context stops the
// run before the front half: no expand or set-building work is done (or
// timed) for a caller that has already gone.
func TestRunCtxCancelledSkipsFrontHalf(t *testing.T) {
	m := synthMeasurements(8, 6, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []struct {
		name string
		run  func(context.Context, *Measurements, Options) (*Result, error)
	}{{"default", RunCtx}, {"reference", RunReference}} {
		reg := telemetry.New()
		opts := Options{LogicalLinks: true, UseReroutes: true, Telemetry: reg}
		if _, err := engine.run(ctx, m, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s engine = %v, want context.Canceled", engine.name, err)
		}
		snap := reg.Snapshot()
		for _, phase := range []string{"expand", "build_sets"} {
			if h := snap.Histograms["diagnose.phase."+phase+"_ns"]; h.Count != 0 {
				t.Errorf("%s engine: %s observed %d times after cancellation", engine.name, phase, h.Count)
			}
		}
	}
}

// TestRoutingNamesResolveLikeStrings checks routing inputs match nodes by
// name, as the reference's string compares do, logical names included: an
// IGP-down link and a withdrawal naming the logical node y1(3)@x2 of the
// fig2 misconfiguration, beside names no path visits.
func TestRoutingNamesResolveLikeStrings(t *testing.T) {
	m := fig2Meas()
	ln := logicalNodeName("x2", "y1", "3")
	up, down := Link{From: "x2", To: ln}, Link{From: ln, To: "y1"}
	ri := &RoutingInfo{
		IGPDownLinks: []Link{down, {From: "ghost", To: "x2"}},
		Withdrawals: []Withdrawal{
			{At: "x2", From: ln, DstSensors: []int{2}},
			{At: "ghost", From: "y1", DstSensors: []int{2}},
		},
	}
	opts := Options{LogicalLinks: true, UseReroutes: true, Routing: ri}
	res, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := hypLinks(res); !got[down] || got[up] {
		t.Fatalf("want %v (IGP down) and not %v (trimmed by the withdrawal), got %v", down, up, res.Hypothesis)
	}
	checkEngines(t, "nd-bgpigp", m, opts)
}
