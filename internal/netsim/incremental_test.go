package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"netdiag/internal/bgp"
	"netdiag/internal/topology"
)

// The tests in this file pin the central contract of incremental
// reconvergence: a warm (delta-driven, dirty-set-pruned) reconvergence is
// route-for-route identical to a cold recompute of the same fault set. Each
// randomized trial drives one incremental network and one cold network
// through an identical mutation script and compares IGP tables, BGP routing
// (best routes and Adj-RIB-Ins) and the probe mesh after every step, so
// chained deltas — where the warm base is itself the product of a warm
// reconvergence — are exercised as heavily as single faults.

// diffPair is a warm/cold pair of networks kept in fault lockstep. The
// cold one reconverges through the nil-delta cold path every time.
type diffPair struct {
	warm, cold *Network
}

func newDiffPair(t testing.TB, topo *topology.Topology, origins []topology.ASN) diffPair {
	t.Helper()
	warm, err := New(topo, origins)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(topo, origins)
	if err != nil {
		t.Fatal(err)
	}
	return diffPair{warm: warm, cold: cold}
}

func (d diffPair) fork() diffPair {
	return diffPair{warm: d.warm.Fork(), cold: d.cold.Fork()}
}

// reconverge converges both networks and asserts full state equivalence.
func (d diffPair) reconverge(t testing.TB, sensors []topology.RouterID, label string) {
	t.Helper()
	if err := d.warm.Reconverge(); err != nil {
		t.Fatalf("%s: warm reconverge: %v", label, err)
	}
	if err := d.cold.reconvergeCtx(context.Background(), nil); err != nil {
		t.Fatalf("%s: cold reconverge: %v", label, err)
	}
	if !d.warm.IGP().TablesEqual(d.cold.IGP()) {
		t.Fatalf("%s: warm IGP tables diverge from cold recompute", label)
	}
	if diffs := d.warm.BGP().DiffRoutes(d.cold.BGP(), 5); len(diffs) > 0 {
		t.Fatalf("%s: warm BGP state diverges from cold recompute:\n%v", label, diffs)
	}
	if len(sensors) > 0 {
		if wk, ck := meshKey(d.warm.Mesh(sensors)), meshKey(d.cold.Mesh(sensors)); wk != ck {
			t.Fatalf("%s: warm mesh diverges from cold:\n%s\nvs\n%s", label, wk, ck)
		}
	}
}

// mutator generates random fault-script steps applied to both networks.
type mutator struct {
	rng     *rand.Rand
	topo    *topology.Topology
	origins []topology.ASN
	inter   []*topology.PhysLink
}

func newMutator(rng *rand.Rand, topo *topology.Topology, origins []topology.ASN) *mutator {
	m := &mutator{rng: rng, topo: topo, origins: origins}
	for _, l := range topo.Links() {
		if l.Kind == topology.Inter {
			m.inter = append(m.inter, l)
		}
	}
	return m
}

// step applies one random mutation to both networks and describes it.
func (m *mutator) step(d diffPair) string {
	apply := func(f func(n *Network)) {
		f(d.warm)
		f(d.cold)
	}
	op := m.rng.Intn(10)
	switch {
	case op < 4: // fail a random link
		id := topology.LinkID(m.rng.Intn(m.topo.NumLinks()))
		apply(func(n *Network) { n.FailLink(id) })
		return fmt.Sprintf("fail link %d", id)
	case op < 6: // fail a random router
		r := topology.RouterID(m.rng.Intn(m.topo.NumRouters()))
		apply(func(n *Network) { n.FailRouter(r) })
		return fmt.Sprintf("fail router %d", r)
	case op < 8 && len(m.inter) > 0: // add an export filter on a real session
		l := m.inter[m.rng.Intn(len(m.inter))]
		router, peer := l.A, l.B
		if m.rng.Intn(2) == 0 {
			router, peer = peer, router
		}
		f := bgp.ExportFilter{
			Router: router,
			Peer:   peer,
			Prefix: bgp.PrefixFor(m.origins[m.rng.Intn(len(m.origins))]),
		}
		apply(func(n *Network) { n.AddExportFilter(f) })
		return fmt.Sprintf("filter %s at %d->%d", f.Prefix, f.Router, f.Peer)
	case op < 9: // restore a random link (often a no-op restore)
		id := topology.LinkID(m.rng.Intn(m.topo.NumLinks()))
		apply(func(n *Network) { n.RestoreLink(id) })
		return fmt.Sprintf("restore link %d", id)
	default: // clear every fault (restoration + filter removal => cold BGP)
		apply(func(n *Network) { n.ClearFaults() })
		return "clear faults"
	}
}

// runDifferentialTrials drives `trials` independent forked fault scripts of
// 1-3 reconverged steps each against the shared converged pair.
func runDifferentialTrials(t *testing.T, base diffPair, m *mutator, sensors []topology.RouterID, trials int) {
	t.Helper()
	base.reconverge(t, sensors, "baseline")
	for trial := 0; trial < trials; trial++ {
		d := base.fork()
		steps := 1 + m.rng.Intn(3)
		for s := 0; s < steps; s++ {
			desc := m.step(d)
			d.reconverge(t, sensors, fmt.Sprintf("trial %d step %d (%s)", trial, s, desc))
		}
	}
}

func TestIncrementalEquivalenceFig2(t *testing.T) {
	f := topology.BuildFig2()
	origins := []topology.ASN{f.ASA, f.ASB, f.ASC, f.ASX, f.ASY}
	d := newDiffPair(t, f.Topo, origins)
	m := newMutator(rand.New(rand.NewSource(42)), f.Topo, origins)
	runDifferentialTrials(t, d, m, []topology.RouterID{f.S1, f.S2, f.S3}, 100)
}

func TestIncrementalEquivalenceFig1(t *testing.T) {
	f := topology.BuildFig1()
	origins := []topology.ASN{1}
	d := newDiffPair(t, f.Topo, origins)
	m := newMutator(rand.New(rand.NewSource(7)), f.Topo, origins)
	runDifferentialTrials(t, d, m, []topology.RouterID{f.S1, f.S2, f.S3}, 60)
}

func TestIncrementalEquivalenceResearch(t *testing.T) {
	if testing.Short() {
		t.Skip("research-topology trials in -short mode")
	}
	cfg := topology.ResearchConfig{
		NumTier2:            4,
		NumStubs:            12,
		Tier2Routers:        5,
		Tier2MultihomedFrac: 0.5,
		StubMultihomedFrac:  0.25,
		StubsOnCoreFrac:     0.2,
		Seed:                3,
	}
	res, err := topology.GenerateResearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	origins := append([]topology.ASN{}, res.Stubs...)
	d := newDiffPair(t, res.Topo, origins)
	m := newMutator(rand.New(rand.NewSource(99)), res.Topo, origins)
	sensors := []topology.RouterID{
		res.Topo.AS(res.Stubs[0]).Routers[0],
		res.Topo.AS(res.Stubs[1]).Routers[0],
		res.Topo.AS(res.Stubs[2]).Routers[0],
	}
	runDifferentialTrials(t, d, m, sensors, 48)
}

// TestIncrementalFilterOnlyDelta pins the pruning payoff on the cheapest
// delta: adding one export filter must mark only that filter's prefix dirty
// and share every other prefix's state with the base.
func TestIncrementalFilterOnlyDelta(t *testing.T) {
	f := topology.BuildFig2()
	origins := []topology.ASN{f.ASA, f.ASB, f.ASC}
	d := newDiffPair(t, f.Topo, origins)
	d.reconverge(t, nil, "baseline")
	d = d.fork()
	filt := bgp.ExportFilter{Router: f.R["y4"], Peer: f.R["b1"], Prefix: bgp.PrefixFor(f.ASC)}
	d.warm.AddExportFilter(filt)
	d.cold.AddExportFilter(filt)
	d.reconverge(t, []topology.RouterID{f.S1, f.S2, f.S3}, "filter-only")
	dirty, skipped := d.warm.BGP().WarmStats()
	if dirty != 1 || skipped != len(origins)-1 {
		t.Fatalf("filter-only delta: dirty=%d skipped=%d, want 1/%d", dirty, skipped, len(origins)-1)
	}
}

// TestIncrementalRestoreConvergesCold pins that a warm start only
// degrades: restoring a failed link, or removing a filter, can create
// routes anywhere, so BGP converges cold (no prefix is warm-dirty or
// shared with the degraded base) while the result still equals the cold
// twin's.
func TestIncrementalRestoreConvergesCold(t *testing.T) {
	f := topology.BuildFig2()
	origins := []topology.ASN{f.ASA, f.ASB, f.ASC}
	sensors := []topology.RouterID{f.S1, f.S2, f.S3}
	d := newDiffPair(t, f.Topo, origins)
	l, _ := f.Topo.LinkBetween(f.R["y4"], f.R["b1"])
	d.warm.FailLink(l.ID)
	d.cold.FailLink(l.ID)
	d.reconverge(t, nil, "degrade")
	d.warm.RestoreLink(l.ID)
	d.cold.RestoreLink(l.ID)
	d.reconverge(t, sensors, "restore")
	if dirty, skipped := d.warm.BGP().WarmStats(); dirty != 0 || skipped != 0 {
		t.Fatalf("restore: dirty=%d skipped=%d, want a cold 0/0", dirty, skipped)
	}

	filt := bgp.ExportFilter{Router: f.R["y4"], Peer: f.R["b1"], Prefix: bgp.PrefixFor(f.ASC)}
	d.warm.AddExportFilter(filt)
	d.cold.AddExportFilter(filt)
	d.reconverge(t, nil, "filter")
	d.warm.ClearFaults()
	d.cold.ClearFaults()
	d.reconverge(t, sensors, "filter removed")
	if dirty, skipped := d.warm.BGP().WarmStats(); dirty != 0 || skipped != 0 {
		t.Fatalf("filter removal: dirty=%d skipped=%d, want a cold 0/0", dirty, skipped)
	}
}

// TestIncrementalPruningSkipsUnaffected pins that a single-link failure
// whose IGP fallout is local leaves unrelated prefixes shared rather than
// recomputed. Failing y3-y4 (AS-Y's cost-2 backup) only changes the
// y3<->y4 distances, so only prefixes with a best route egressing across
// that pair (B's at y3, C's at y4) go dirty; A's, X's and Y's own prefix
// ride egresses whose distances are untouched and must be shared.
func TestIncrementalPruningSkipsUnaffected(t *testing.T) {
	f := topology.BuildFig2()
	origins := []topology.ASN{f.ASA, f.ASB, f.ASC, f.ASX, f.ASY}
	d := newDiffPair(t, f.Topo, origins)
	d.reconverge(t, nil, "baseline")
	d = d.fork()
	l, ok := f.Topo.LinkBetween(f.R["y3"], f.R["y4"])
	if !ok {
		t.Fatal("no y3-y4 link")
	}
	d.warm.FailLink(l.ID)
	d.cold.FailLink(l.ID)
	d.reconverge(t, []topology.RouterID{f.S1, f.S2, f.S3}, "backup link")
	dirty, skipped := d.warm.BGP().WarmStats()
	if dirty != 2 || skipped != 3 {
		t.Fatalf("y3-y4 failure: dirty=%d skipped=%d, want 2/3", dirty, skipped)
	}
}

// FuzzIncrementalEquivalence feeds arbitrary mutation scripts through the
// warm/cold pair. Each input byte encodes one scripted step; the networks
// must stay route-for-route identical after every reconvergence.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x07, 0x13})
	f.Add([]byte{0x21, 0x21})       // fault then its own restore
	f.Add([]byte{0x02, 0x44, 0x09}) // fault, clear, fault
	f.Add([]byte{0x33, 0x18, 0x2a, 0x05})
	fig := topology.BuildFig2()
	origins := []topology.ASN{fig.ASA, fig.ASB, fig.ASC, fig.ASX, fig.ASY}
	sensors := []topology.RouterID{fig.S1, fig.S2, fig.S3}
	base := newDiffPair(f, fig.Topo, origins)
	if err := base.warm.Reconverge(); err != nil {
		f.Fatal(err)
	}
	if err := base.cold.reconvergeCtx(context.Background(), nil); err != nil {
		f.Fatal(err)
	}
	var prefixes []bgp.Prefix
	for _, as := range origins {
		prefixes = append(prefixes, bgp.PrefixFor(as))
	}
	var inter []*topology.PhysLink
	for _, l := range fig.Topo.Links() {
		if l.Kind == topology.Inter {
			inter = append(inter, l)
		}
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 6 {
			t.Skip()
		}
		d := base.fork()
		for s, b := range script {
			arg := int(b >> 3)
			apply := func(fn func(n *Network)) { fn(d.warm); fn(d.cold) }
			switch b & 0x7 {
			case 0, 1:
				apply(func(n *Network) { n.FailLink(topology.LinkID(arg % fig.Topo.NumLinks())) })
			case 2, 3:
				apply(func(n *Network) { n.FailRouter(topology.RouterID(arg % fig.Topo.NumRouters())) })
			case 4:
				l := inter[arg%len(inter)]
				filt := bgp.ExportFilter{Router: l.A, Peer: l.B, Prefix: prefixes[arg%len(prefixes)]}
				apply(func(n *Network) { n.AddExportFilter(filt) })
			case 5, 6:
				apply(func(n *Network) { n.RestoreLink(topology.LinkID(arg % fig.Topo.NumLinks())) })
			default:
				apply(func(n *Network) { n.ClearFaults() })
			}
			d.reconverge(t, sensors, fmt.Sprintf("step %d (op %#x)", s, b))
		}
	})
}

// TestConcurrentForkDisjointFaults runs disjoint-fault trials on concurrent
// forks of one warm-converged research network (delta tracking shares the
// base snapshot across forks) and asserts each outcome is byte-identical to
// the same fault applied sequentially. Run under -race.
func TestConcurrentForkDisjointFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("research-topology trials in -short mode")
	}
	cfg := topology.ResearchConfig{
		NumTier2:            4,
		NumStubs:            10,
		Tier2Routers:        5,
		Tier2MultihomedFrac: 0.5,
		StubMultihomedFrac:  0.25,
		StubsOnCoreFrac:     0.2,
		Seed:                11,
	}
	res, err := topology.GenerateResearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	origins := append([]topology.ASN{}, res.Stubs...)
	base, err := New(res.Topo, origins, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	sensors := []topology.RouterID{
		res.Topo.AS(res.Stubs[0]).Routers[0],
		res.Topo.AS(res.Stubs[1]).Routers[0],
		res.Topo.AS(res.Stubs[2]).Routers[0],
	}
	baseKey := meshKey(base.Mesh(sensors))

	// Disjoint fault sets: one intra link per tier-2 AS plus one router.
	type fault struct {
		link   topology.LinkID
		router topology.RouterID
	}
	var faults []fault
	for i, asn := range res.Tier2 {
		rs := res.Topo.AS(asn).Routers
		l, ok := res.Topo.LinkBetween(rs[0], rs[1])
		if !ok {
			t.Fatalf("tier-2 AS %d: no hub-spoke link", asn)
		}
		faults = append(faults, fault{link: l.ID, router: rs[(i%(len(rs)-1))+1]})
	}

	apply := func(fk fault) (string, error) {
		fork := base.Fork()
		fork.FailLink(fk.link)
		fork.FailRouter(fk.router)
		if err := fork.Reconverge(); err != nil {
			return "", err
		}
		return meshKey(fork.Mesh(sensors)), nil
	}

	want := make([]string, len(faults))
	for i, fk := range faults {
		k, err := apply(fk)
		if err != nil {
			t.Fatalf("sequential trial %d: %v", i, err)
		}
		want[i] = k
	}

	got := make([]string, len(faults))
	errs := make([]error, len(faults))
	var wg sync.WaitGroup
	for i, fk := range faults {
		wg.Add(1)
		go func(i int, fk fault) {
			defer wg.Done()
			got[i], errs[i] = apply(fk)
		}(i, fk)
	}
	wg.Wait()
	for i := range faults {
		if errs[i] != nil {
			t.Fatalf("concurrent trial %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("concurrent trial %d diverged from sequential run", i)
		}
	}
	if meshKey(base.Mesh(sensors)) != baseKey {
		t.Fatal("fork trials mutated the base network")
	}
}
