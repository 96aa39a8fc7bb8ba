package bgp

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netdiag/internal/igp"
	"netdiag/internal/topology"
)

// The synchronous rounds this package converged with before its worklist,
// kept as a route-for-route oracle. Each round re-decides every router from
// the previous round's state, then recomputes every Adj-RIB-In slot from
// the new bests, until a round changes nothing. The rounds share decide and
// export with the worklist but none of its seeding, queueing or change
// propagation, and they always start from empty RIBs, so a fixpoint both
// reach pins the worklist's bookkeeping, cold and warm. The netsim
// incremental tests compare warm against cold through the same engine,
// where a wrong fixpoint both sides share would stay invisible.

// roundsCompute converges cfg by synchronous rounds from empty RIBs.
func roundsCompute(t testing.TB, cfg Config) *State {
	t.Helper()
	if cfg.IsLinkUp == nil {
		cfg.IsLinkUp = func(topology.LinkID) bool { return true }
	}
	if cfg.IsRouterUp == nil {
		cfg.IsRouterUp = func(topology.RouterID) bool { return true }
	}
	s := &State{cfg: cfg, per: map[Prefix]*prefixState{}}
	s.layout = buildLayout(&s.cfg)
	for p := range cfg.Origins {
		s.prefixes = append(s.prefixes, p)
	}
	slices.Sort(s.prefixes)
	nr := cfg.Topo.NumRouters()
	for _, p := range s.prefixes {
		cur := &prefixState{best: make([]*Route, nr), adj: make([]*Route, len(s.layout.flat)), layout: s.layout}
		next := &prefixState{best: make([]*Route, nr), adj: make([]*Route, len(s.layout.flat)), layout: s.layout}
		for rounds := 1; ; rounds++ {
			if rounds > 500 {
				t.Fatalf("%s: no fixpoint after 500 rounds", p)
			}
			if !s.stepPrefix(p, cfg.Origins[p], cur, next) {
				break
			}
			cur, next = next, cur
		}
		s.per[p] = next
	}
	return s
}

// stepPrefix runs one synchronous round for prefix p, which AS origin
// originates: recompute every router's best route from the previous
// round's state (prev), then recompute every Adj-RIB-In slot from the new
// bests, writing into next. It reports whether anything changed.
func (s *State) stepPrefix(p Prefix, origin topology.ASN, prev, next *prefixState) (changed bool) {
	for id := 0; id < s.cfg.Topo.NumRouters(); id++ {
		r := topology.RouterID(id)
		if !s.cfg.IsRouterUp(r) {
			next.best[r] = nil
			changed = changed || prev.best[r] != nil
			continue
		}
		next.best[r] = s.decide(r, p, origin, prev)
		changed = changed || !next.best[r].equal(prev.best[r])
	}
	// Exports read the bests just computed (next); export only reads
	// .best, so the half-filled next.adj is fine.
	for i, e := range s.layout.flat {
		next.adj[i] = s.export(e, p, next, prev.adj[i])
		changed = changed || !next.adj[i].equal(prev.adj[i])
	}
	return changed
}

// oracleCase is a topology with its announced prefixes.
type oracleCase struct {
	name     string
	topo     *topology.Topology
	origins  map[Prefix]topology.ASN
	prefixes []Prefix
	inter    []*topology.PhysLink
}

func newOracleCase(name string, topo *topology.Topology, origins []topology.ASN) *oracleCase {
	c := &oracleCase{name: name, topo: topo, origins: map[Prefix]topology.ASN{}}
	for _, as := range origins {
		c.origins[PrefixFor(as)] = as
		c.prefixes = append(c.prefixes, PrefixFor(as))
	}
	slices.Sort(c.prefixes)
	for _, l := range topo.Links() {
		if l.Kind == topology.Inter {
			c.inter = append(c.inter, l)
		}
	}
	return c
}

func researchCase(t testing.TB, seed int64) *oracleCase {
	t.Helper()
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	var origins []topology.ASN
	for i := 0; i < 10; i++ {
		origins = append(origins, res.Stubs[i*13%len(res.Stubs)])
	}
	return newOracleCase(fmt.Sprintf("research-%d", seed), res.Topo, origins)
}

// oracleCases are the topologies the oracle tests run on: the paper's two
// figures and three research topologies.
func oracleCases(t testing.TB) []*oracleCase {
	f1, f2 := topology.BuildFig1(), topology.BuildFig2()
	return []*oracleCase{
		newOracleCase("fig1", f1.Topo, []topology.ASN{f1.Topo.RouterAS(f1.S1)}),
		newOracleCase("fig2", f2.Topo, []topology.ASN{f2.ASA, f2.ASB, f2.ASC}),
		researchCase(t, 1),
		researchCase(t, 7),
		researchCase(t, 21),
	}
}

// faults is one fault set: failed links and routers and active export
// filters.
type faults struct {
	links   map[topology.LinkID]bool
	routers map[topology.RouterID]bool
	filters []ExportFilter
}

// linkUp reports a link up unless it or one of its routers failed, as
// netsim does.
func (c *oracleCase) linkUp(f faults) func(topology.LinkID) bool {
	return func(id topology.LinkID) bool {
		l := c.topo.Link(id)
		return !f.links[id] && !f.routers[l.A] && !f.routers[l.B]
	}
}

// randomFaults adds to base 1–3 failed links, a failed router in one case
// of three and, in every other case, one or two export filters on random
// eBGP sessions.
func (c *oracleCase) randomFaults(rng *rand.Rand, base faults) faults {
	f := faults{links: map[topology.LinkID]bool{}, routers: map[topology.RouterID]bool{}, filters: slices.Clone(base.filters)}
	for id := range base.links {
		f.links[id] = true
	}
	for r := range base.routers {
		f.routers[r] = true
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		f.links[topology.LinkID(rng.Intn(c.topo.NumLinks()))] = true
	}
	if rng.Intn(3) == 0 {
		f.routers[topology.RouterID(rng.Intn(c.topo.NumRouters()))] = true
	}
	if len(c.inter) > 0 && rng.Intn(2) == 0 {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			l := c.inter[rng.Intn(len(c.inter))]
			router, peer := l.A, l.B
			if rng.Intn(2) == 0 {
				router, peer = peer, router
			}
			f.filters = append(f.filters, ExportFilter{Router: router, Peer: peer, Prefix: c.prefixes[rng.Intn(len(c.prefixes))]})
		}
	}
	return f
}

// config is fault set f's Config over c, its IGP computed cold.
func (c *oracleCase) config(f faults) Config {
	up := c.linkUp(f)
	return Config{
		Topo:       c.topo,
		IGP:        igp.New(c.topo, up, 1),
		IsLinkUp:   up,
		IsRouterUp: func(r topology.RouterID) bool { return !f.routers[r] },
		Origins:    c.origins,
		Filters:    f.filters,
	}
}

// delta describes the move from fault set from, converged as prior, to
// fault set to, as netsim tracks it. Filter changes are left for the
// compute to diff.
func (c *oracleCase) delta(prior *State, from, to faults) *Delta {
	d := &Delta{Prior: prior, SessionsUnchanged: true}
	was, is := c.linkUp(from), c.linkUp(to)
	dirty := map[topology.ASN]bool{}
	for _, l := range c.topo.Links() {
		if was(l.ID) == is(l.ID) {
			continue
		}
		d.ForceAll = d.ForceAll || is(l.ID)
		if l.Kind == topology.Inter {
			d.SessionsUnchanged = false
		} else {
			dirty[c.topo.RouterAS(l.A)] = true
		}
	}
	for id := 0; id < c.topo.NumRouters(); id++ {
		r := topology.RouterID(id)
		if from.routers[r] == to.routers[r] {
			continue
		}
		if to.routers[r] {
			d.FailedRouters = append(d.FailedRouters, r)
		} else {
			d.ForceAll = true
		}
		dirty[c.topo.RouterAS(r)] = true
	}
	for _, asn := range c.topo.ASNumbers() {
		if dirty[asn] {
			d.DirtyASes = append(d.DirtyASes, asn)
		}
	}
	return d
}

// compute converges fault set f through ComputeCtx, warm from d when it is
// non-nil, popping in the order order picks when it is non-nil.
func (c *oracleCase) compute(t testing.TB, f faults, d *Delta, order func(int) int) *State {
	t.Helper()
	cfg := c.config(f)
	cfg.Warm, cfg.order = d, order
	st, err := ComputeCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWorklistMatchesRounds requires the worklist fixpoint to equal the
// synchronous rounds from empty RIBs route for route, over random link and
// router failures and export filters: computed cold, warm from the healthy
// state, warm from a faulted state that degrades further, and warm back to
// health (a restoration, which forces every router onto the worklist).
func TestWorklistMatchesRounds(t *testing.T) {
	trials := map[string]int{"fig1": 60, "fig2": 60}
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			n := trials[c.name]
			if n == 0 {
				n = 20
			}
			rng := rand.New(rand.NewSource(int64(len(c.name) + n)))
			healthy := faults{}
			wantHealthy := roundsCompute(t, c.config(healthy))
			base := c.compute(t, healthy, nil, nil)
			requireSame(t, "cold healthy", base, wantHealthy)
			for trial := 0; trial < n; trial++ {
				f := c.randomFaults(rng, healthy)
				want := roundsCompute(t, c.config(f))
				requireSame(t, "cold", c.compute(t, f, nil, nil), want)
				warm := c.compute(t, f, c.delta(base, healthy, f), nil)
				requireSame(t, "warm", warm, want)

				g := c.randomFaults(rng, f)
				want = roundsCompute(t, c.config(g))
				chained := c.compute(t, g, c.delta(warm, f, g), nil)
				requireSame(t, "chained", chained, want)
				requireSame(t, "restored", c.compute(t, healthy, c.delta(chained, g, healthy), nil), wantHealthy)
			}
		})
	}
}

// TestWorklistOrderIndependent drains every worklist in shuffled orders:
// the order hook pops a uniformly random queued router each time, which
// shuffles the seeds as well as the propagation. Over 50 random fault sets
// on each of fig2 and research-7, every order must reach the FIFO drain's
// state route for route, warm and cold.
func TestWorklistOrderIndependent(t *testing.T) {
	f2 := topology.BuildFig2()
	for _, c := range []*oracleCase{
		newOracleCase("fig2", f2.Topo, []topology.ASN{f2.ASA, f2.ASB, f2.ASC}),
		researchCase(t, 7),
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			healthy := faults{}
			base := c.compute(t, healthy, nil, nil)
			for trial := 0; trial < 50; trial++ {
				f := c.randomFaults(rng, healthy)
				fifo := c.compute(t, f, c.delta(base, healthy, f), nil)
				for k := 0; k < 3; k++ {
					got := c.compute(t, f, c.delta(base, healthy, f), rng.Intn)
					requireSame(t, "shuffled warm", got, fifo)
				}
				cold := c.compute(t, f, nil, rng.Intn)
				requireSame(t, "shuffled cold", cold, fifo)
			}
		})
	}
}

// requireSame fails t unless got and want hold the same routes.
func requireSame(t *testing.T, label string, got, want *State) {
	t.Helper()
	if diffs := got.DiffRoutes(want, 5); len(diffs) > 0 {
		t.Fatalf("%s: worklist state differs:\n%v", label, diffs)
	}
}
