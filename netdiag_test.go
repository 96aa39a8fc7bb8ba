package netdiag_test

import (
	"context"
	"testing"

	"netdiag"
)

// TestFacadeEndToEnd drives the public API exactly like the quickstart
// example: simulate, fail, measure, diagnose, score.
func TestFacadeEndToEnd(t *testing.T) {
	fig := netdiag.BuildFig2()
	net, err := netdiag.NewNetwork(fig.Topo, []netdiag.ASN{fig.ASA, fig.ASB, fig.ASC})
	if err != nil {
		t.Fatal(err)
	}
	sensors := []netdiag.RouterID{fig.S1, fig.S2, fig.S3}
	before := net.Mesh(sensors)

	link, ok := fig.Topo.LinkBetween(fig.R["b1"], fig.R["b2"])
	if !ok {
		t.Fatal("b1-b2 missing")
	}
	net.FailLink(link.ID)
	if err := net.Reconverge(); err != nil {
		t.Fatal(err)
	}
	after := net.Mesh(sensors)

	meas := netdiag.ToMeasurements(before, after)
	res, err := netdiag.New(netdiag.WithAlgorithm(netdiag.NDEdgeAlgo)).Diagnose(context.Background(), meas)
	if err != nil {
		t.Fatal(err)
	}
	truth := []netdiag.Link{
		{From: netdiag.Node(fig.Topo.Router(fig.R["b1"]).Addr), To: netdiag.Node(fig.Topo.Router(fig.R["b2"]).Addr)},
		{From: netdiag.Node(fig.Topo.Router(fig.R["b2"]).Addr), To: netdiag.Node(fig.Topo.Router(fig.R["b1"]).Addr)},
	}
	if s := netdiag.Sensitivity(truth, res.PhysLinks()); s != 1 {
		t.Fatalf("sensitivity = %v, want 1 (H=%v)", s, res.PhysLinks())
	}
	universe := netdiag.ProbedLinks(fig.Topo, before)
	if sp := netdiag.Specificity(universe, truth, res.PhysLinks()); sp < 0.5 {
		t.Fatalf("specificity = %v unexpectedly low", sp)
	}
	if d := netdiag.Diagnosability(meas.Before); d <= 0 || d > 1 {
		t.Fatalf("diagnosability = %v out of range", d)
	}
}

// TestFacadeSCFS exercises the tree baseline through the facade.
func TestFacadeSCFS(t *testing.T) {
	paths := []*netdiag.TracePath{
		{SrcSensor: 0, DstSensor: 1, OK: false, Hops: []netdiag.Hop{
			{Node: "s"}, {Node: "a"}, {Node: "b"}}},
		{SrcSensor: 0, DstSensor: 2, OK: true, Hops: []netdiag.Hop{
			{Node: "s"}, {Node: "c"}}},
	}
	links, err := netdiag.SCFS(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 || links[0] != (netdiag.Link{From: "s", To: "a"}) {
		t.Fatalf("SCFS = %v", links)
	}
}

// TestFacadeCustomTopology builds a topology through the public builder.
func TestFacadeCustomTopology(t *testing.T) {
	b := netdiag.NewTopologyBuilder()
	b.AddAS(1, 2 /* Stub */, "left")
	b.AddAS(2, 2, "right")
	b.AddAS(3, 1 /* Tier2 */, "mid")
	l := b.AddRouter(1, "")
	r := b.AddRouter(2, "")
	m1 := b.AddRouter(3, "")
	m2 := b.AddRouter(3, "")
	b.Connect(m1, m2, 1)
	b.Interconnect(m1, l, 1 /* Customer */)
	b.Interconnect(m2, r, 1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := netdiag.NewNetwork(topo, []netdiag.ASN{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	p := net.Traceroute(l, r)
	if !p.OK || len(p.Hops) != 4 {
		t.Fatalf("traceroute %v", p)
	}
}

// TestFacadeVariants exercises every algorithm variant and the facade's
// metric wrappers at least once.
func TestFacadeVariants(t *testing.T) {
	fig := netdiag.BuildFig2()
	net, err := netdiag.NewNetwork(fig.Topo, []netdiag.ASN{fig.ASA, fig.ASB, fig.ASC})
	if err != nil {
		t.Fatal(err)
	}
	sensors := []netdiag.RouterID{fig.S1, fig.S2, fig.S3}
	before := net.Mesh(sensors)
	beforeBGP := net.BGP()

	link, _ := fig.Topo.LinkBetween(fig.R["y4"], fig.R["b1"])
	net.FailLink(link.ID)
	if err := net.Reconverge(); err != nil {
		t.Fatal(err)
	}
	after := net.Mesh(sensors)
	blocked := map[netdiag.ASN]bool{fig.ASY: true}
	meas := netdiag.ToMeasurements(before.Mask(blocked), after.Mask(blocked))

	origins := []netdiag.ASN{fig.ASA, fig.ASB, fig.ASC}
	routing := &netdiag.RoutingInfo{
		ASX:          fig.ASX,
		IGPDownLinks: netdiag.AdaptIGPDowns(net, fig.ASX),
		Withdrawals: netdiag.AdaptWithdrawals(fig.Topo,
			netdiag.ObserveWithdrawals(fig.Topo, beforeBGP, net.BGP(), fig.ASX), origins),
	}
	prefixes := []netdiag.Prefix{
		netdiag.PrefixFor(fig.ASA), netdiag.PrefixFor(fig.ASB), netdiag.PrefixFor(fig.ASC),
	}
	lg := netdiag.NewLookingGlassRegistry(net.BGP(), beforeBGP, nil, fig.ASX, prefixes)

	ctx := context.Background()
	if _, err := netdiag.New(netdiag.WithAlgorithm(netdiag.TomoAlgo)).Diagnose(ctx, meas); err != nil {
		t.Fatal(err)
	}
	if _, err := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDBgpIgpAlgo),
		netdiag.WithRoutingInfo(routing),
	).Diagnose(ctx, meas); err != nil {
		t.Fatal(err)
	}
	res, err := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDLGAlgo),
		netdiag.WithRoutingInfo(routing),
		netdiag.WithLookingGlass(lg),
	).Diagnose(ctx, meas)
	if err != nil {
		t.Fatal(err)
	}
	// The failure (y4-b1) touches blocked AS-Y: ND-LG's AS attribution
	// must include Y or B.
	found := false
	for _, as := range res.ASes() {
		if as == fig.ASY || as == fig.ASB {
			found = true
		}
	}
	if !found {
		t.Fatalf("ND-LG ASes = %v, expected Y or B", res.ASes())
	}
	custom := netdiag.Options{UseReroutes: true, UsePartialTraces: true}
	if _, err := netdiag.New(netdiag.WithOptions(custom)).Diagnose(ctx, meas); err != nil {
		t.Fatal(err)
	}

	// Metrics wrappers.
	cov := []netdiag.ASN{fig.ASA, fig.ASB, fig.ASC, fig.ASX, fig.ASY}
	se := netdiag.ASSensitivity([]netdiag.ASN{fig.ASY}, res.ASes())
	sp := netdiag.ASSpecificity(cov, []netdiag.ASN{fig.ASY}, res.ASes())
	if se < 0 || se > 1 || sp < 0 || sp > 1 {
		t.Fatalf("AS metrics out of range: %v %v", se, sp)
	}
	if netdiag.DisplayNode("plain") != "plain" {
		t.Fatal("DisplayNode")
	}

	// Research generator + detector wrappers.
	if _, err := netdiag.GenerateResearch(99); err != nil {
		t.Fatal(err)
	}
	d := netdiag.NewDetector(netdiag.DetectorConfig{Confirm: 1})
	d.Observe(before)
	if a := d.Observe(after); a == nil {
		t.Fatal("detector should alarm with Confirm=1 after a healthy baseline")
	}
}
