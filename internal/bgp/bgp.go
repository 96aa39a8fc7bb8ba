// Package bgp implements the interdomain routing substrate: a router-level
// path-vector protocol in the style of C-BGP's static solver. Each router
// runs the standard decision process over routes received on eBGP sessions
// (one per inter-AS physical link) and over iBGP (full mesh within the AS,
// subject to IGP reachability), with Gao–Rexford export policies derived
// from the topology's business relationships and optional per-neighbor
// export filters used to simulate the paper's router misconfigurations.
//
// The simulator computes the stable routing state with an event-driven
// fixpoint per prefix, as C-BGP converges from a queue of update messages:
// a FIFO worklist holds the routers whose inputs changed, and a router is
// re-decided only when it pops. Only a router whose best route changed
// re-exports it, and only the neighbours whose Adj-RIB-In that changes
// (plus, for an eBGP-learned best, the routers of its AS, which read it
// over iBGP) join the worklist. Gao–Rexford policies give each prefix a
// unique stable state, so the order of the worklist does not change the
// result. The NetDiagnoser paper diagnoses non-transient failures after
// routing has converged, so the stable state — not BGP's transient message
// dynamics — is the only thing the diagnosis algorithms observe.
//
// Prefixes converge independently of each other (the decision process for
// one prefix never reads another prefix's state), so Compute runs one
// fixpoint per prefix and, when Config.Parallelism allows, fans the
// per-prefix fixpoints out over a bounded worker pool. The converged state
// is identical at any parallelism level.
package bgp

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"netdiag/internal/igp"
	"netdiag/internal/pool"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// Metrics instruments the convergence pipeline: the decisions each
// prefix's fixpoint made, a convergence counter, and the pool-layer task
// metrics of the per-prefix fan-out. A nil *Metrics disables everything.
type Metrics struct {
	// Decisions observes the decision-process runs each prefix's fixpoint
	// made.
	Decisions *telemetry.Histogram
	// PrefixesConverged counts successfully converged prefixes.
	PrefixesConverged *telemetry.Counter
	// PrefixesDirty counts prefixes a warm compute had to re-run the
	// fixpoint for; PrefixesSkipped counts prefixes that shared the prior
	// state untouched.
	PrefixesDirty   *telemetry.Counter
	PrefixesSkipped *telemetry.Counter
	// WarmDecisions observes the decisions of warm-started prefixes only,
	// where the worklist re-decides just the routers the delta reached.
	WarmDecisions *telemetry.Histogram
	// Pool carries the shared pool-layer task metrics.
	Pool *pool.Metrics
}

// decisionBuckets bound the per-prefix decision counts: from a warm
// prefix's handful to a cold prefix's few per router of a research
// topology.
var decisionBuckets = []int64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// NewMetrics returns the BGP metrics of a registry (nil registry -> nil).
func NewMetrics(r *telemetry.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Decisions:         r.Histogram("bgp.decisions", decisionBuckets),
		PrefixesConverged: r.Counter("bgp.prefixes_converged"),
		PrefixesDirty:     r.Counter("bgp.prefixes_dirty"),
		PrefixesSkipped:   r.Counter("bgp.prefixes_skipped"),
		WarmDecisions:     r.Histogram("bgp.warm_decisions", decisionBuckets),
		Pool:              pool.NewMetrics(r),
	}
}

// prefixConverged records one prefix whose fixpoint ran; warm marks a
// warm compute's dirty prefix.
func (m *Metrics) prefixConverged(decisions int, warm bool) {
	if m == nil {
		return
	}
	m.PrefixesConverged.Inc()
	m.Decisions.Observe(int64(decisions))
	if warm {
		m.PrefixesDirty.Inc()
		m.WarmDecisions.Observe(int64(decisions))
	}
}

// prefixesSkipped records the prefixes a warm compute shared untouched.
func (m *Metrics) prefixesSkipped(n int) {
	if m == nil {
		return
	}
	m.PrefixesSkipped.Add(int64(n))
}

func (m *Metrics) poolMetrics() *pool.Metrics {
	if m == nil {
		return nil
	}
	return m.Pool
}

// Prefix names a destination prefix. The simulation originates one prefix
// per sensor-hosting AS (see netsim), which is all the diagnoser needs.
type Prefix string

// PrefixFor returns the canonical prefix name for an origin AS.
func PrefixFor(as topology.ASN) Prefix { return Prefix("p" + strconv.Itoa(int(as)) + "/24") }

// Local-preference tiers of the standard Gao–Rexford policy.
const (
	prefLocal    = 200
	prefCustomer = 100
	prefPeer     = 90
	prefProvider = 80
)

// Route is one BGP route as held in a router's RIB.
type Route struct {
	Prefix    Prefix
	ASPath    []topology.ASN // nearest AS first, origin AS last; empty for local routes
	LocalPref int
	// Egress is the border router of this AS where traffic exits (the
	// router holding the eBGP session the route was learned on), or the
	// router itself for locally originated routes.
	Egress topology.RouterID
	// PeerRouter is the eBGP neighbor router at the egress; undefined for
	// local routes.
	PeerRouter topology.RouterID
	// Local marks a locally originated route.
	Local bool
	// viaIBGP marks that the holding router learned the route over iBGP
	// (used by the eBGP-over-iBGP decision step).
	viaIBGP bool
}

// equal reports semantic equality of two routes (fixpoint detection).
func (r *Route) equal(o *Route) bool {
	if r == o {
		return true
	}
	if r == nil || o == nil {
		return false
	}
	if r.Prefix != o.Prefix || r.LocalPref != o.LocalPref ||
		r.Egress != o.Egress || r.PeerRouter != o.PeerRouter ||
		r.Local != o.Local || r.viaIBGP != o.viaIBGP ||
		len(r.ASPath) != len(o.ASPath) {
		return false
	}
	for i := range r.ASPath {
		if r.ASPath[i] != o.ASPath[i] {
			return false
		}
	}
	return true
}

// hasAS reports whether the AS path contains asn (loop detection).
func (r *Route) hasAS(asn topology.ASN) bool {
	for _, a := range r.ASPath {
		if a == asn {
			return true
		}
	}
	return false
}

// ExportFilter suppresses the announcement of Prefix from Router to its
// eBGP neighbor Peer. This is exactly the paper's simulated router
// misconfiguration (§4): an incorrectly set outbound route filter.
type ExportFilter struct {
	Router topology.RouterID
	Peer   topology.RouterID
	Prefix Prefix
}

// Config assembles everything needed to compute a stable routing state.
type Config struct {
	Topo *topology.Topology
	IGP  *igp.State
	// IsLinkUp reports physical link liveness; eBGP sessions ride links.
	IsLinkUp func(topology.LinkID) bool
	// IsRouterUp reports router liveness (router failures take down all
	// sessions of the router).
	IsRouterUp func(topology.RouterID) bool
	// Origins maps each announced prefix to its origin AS.
	Origins map[Prefix]topology.ASN
	// Filters are the active export filters (misconfigurations).
	Filters []ExportFilter
	// Parallelism bounds the worker pool the per-prefix fixpoints run on.
	// Values <= 1 converge sequentially (the default); the result is the
	// same either way.
	Parallelism int
	// Metrics receives convergence telemetry; nil (the default) disables
	// it. Telemetry never affects the converged state.
	Metrics *Metrics
	// Warm, when non-nil, seeds the compute from a previously converged
	// state of the same topology and origins that this Config degrades (see
	// Delta): every prefix starts from its prior routes, its worklist seeded
	// with just the routers the described delta reaches, and a prefix the
	// delta does not reach shares the prior state untouched. The converged
	// result is route-for-route identical to a cold compute.
	Warm *Delta

	// budget caps the decisions one prefix's fixpoint may make; 0 means
	// 500 per router. Only tests lower it.
	budget int
	// order, when non-nil, picks which of the n queued routers each
	// fixpoint pops next (0 is the FIFO head). Only tests set it, to drain
	// in shuffled orders at Parallelism 1; the converged state must not
	// depend on it.
	order func(n int) int
}

// session is one live eBGP session endpoint as seen from Local.
type session struct {
	Local  topology.RouterID
	Remote topology.RouterID
	Rel    topology.Rel // Local AS's view of Remote's AS
	// RemoteRel is Remote AS's view of Local's AS: the relationship
	// Remote's Gao–Rexford export to Local is decided under.
	RemoteRel topology.Rel
}

// sessionLayout is the flattened, deterministic index of the live eBGP
// sessions of one computed State: flat holds every directed session grouped
// by Local router (groups sorted by Remote), and start is the CSR offset
// table — router r's sessions occupy flat[start[r]:start[r+1]], and the
// slot index of a session doubles as its Adj-RIB-In index in prefixState.
// A layout is immutable once built and shared by every prefixState computed
// against it.
type sessionLayout struct {
	start []int // len NumRouters+1
	flat  []session
	// rev[i] is the slot of session i's reverse direction: where flat[i]'s
	// Remote receives what flat[i]'s Local exports.
	rev []int32
	// ibgp[r] lists the border routers of r's AS: those with an inter-AS
	// link, live or not. Only they can hold an eBGP-learned best, the one
	// kind of route decide adopts over iBGP, so they are all of r's iBGP
	// full mesh that decide needs to read.
	ibgp [][]topology.RouterID
}

// of returns router r's live sessions (sorted by Remote).
func (ly *sessionLayout) of(r topology.RouterID) []session {
	return ly.flat[ly.start[r]:ly.start[r+1]]
}

// slot returns the Adj-RIB-In slot of the (local, remote) session, or -1 if
// the layout has no such session. Per-router fan-out is small, so a linear
// scan of the router's group beats any index structure.
func (ly *sessionLayout) slot(local, remote topology.RouterID) int {
	for i := ly.start[local]; i < ly.start[int(local)+1]; i++ {
		if ly.flat[i].Remote == remote {
			return i
		}
	}
	return -1
}

// prefixState is the converged state of a single prefix. Each prefix's
// fixpoint reads and writes only its own prefixState, which is what makes
// the per-prefix convergence safely parallel.
type prefixState struct {
	// best is the router's best route, indexed by RouterID (nil = none).
	best []*Route
	// adj is the slot-indexed Adj-RIB-In: adj[i] is what layout.flat[i].Local
	// received from layout.flat[i].Remote (nil = nothing advertised).
	adj []*Route
	// layout is the session layout adj is indexed by. A prefixState shared
	// from a prior state keeps the prior layout, which is a superset of any
	// later pure-degradation layout; removed sessions hold nil entries.
	layout *sessionLayout
	// decisions counts the decision-process runs of the fixpoint that
	// produced this state.
	decisions int
}

// adjAt returns the route local received from remote, resolved through the
// prefixState's own layout (states shared across computes keep their
// original layout).
func (ps *prefixState) adjAt(local, remote topology.RouterID) *Route {
	if i := ps.layout.slot(local, remote); i >= 0 {
		return ps.adj[i]
	}
	return nil
}

// State is a converged routing state.
type State struct {
	cfg      Config
	prefixes []Prefix
	layout   *sessionLayout
	per      map[Prefix]*prefixState
	// warmDirty / warmSkipped describe how a warm compute split the
	// prefixes; both zero for a cold compute.
	warmDirty, warmSkipped int
}

// Compute converges the routing state. It returns an error only if some
// prefix's fixpoint exceeds its decision budget, which for
// relationship-consistent topologies indicates a configuration bug.
func Compute(cfg Config) (*State, error) {
	return ComputeCtx(context.Background(), cfg)
}

// ComputeCtx is Compute with cancellation: ctx is checked between the
// per-prefix tasks of the fan-out and every 1024 decisions within a
// prefix's fixpoint, so a served diagnosis with a deadline aborts the
// convergence promptly with ctx.Err(). The converged state is identical to
// Compute for an uncancelled context. A nil ctx means context.Background().
func ComputeCtx(ctx context.Context, cfg Config) (*State, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.IsLinkUp == nil {
		cfg.IsLinkUp = func(topology.LinkID) bool { return true }
	}
	if cfg.IsRouterUp == nil {
		cfg.IsRouterUp = func(topology.RouterID) bool { return true }
	}
	s := &State{
		cfg: cfg,
		per: make(map[Prefix]*prefixState, len(cfg.Origins)),
	}
	prior := (*State)(nil)
	if cfg.Warm != nil {
		prior = cfg.Warm.Prior
	}
	if prior != nil && len(prior.prefixes) == len(cfg.Origins) {
		// Warm computes run over the same Origins as the prior state (the
		// Delta contract), so the sorted prefix list is reusable read-only.
		s.prefixes = prior.prefixes
	} else {
		s.prefixes = make([]Prefix, 0, len(cfg.Origins))
		for p := range cfg.Origins {
			s.prefixes = append(s.prefixes, p)
		}
		sort.Slice(s.prefixes, func(i, j int) bool { return s.prefixes[i] < s.prefixes[j] })
	}
	if prior != nil && cfg.Warm.SessionsUnchanged {
		// No inter-AS link or router liveness changed, so the live eBGP
		// session set is exactly the prior one.
		s.layout = prior.layout
	} else {
		s.layout = buildLayout(&s.cfg)
	}

	var plan *warmPlan
	if prior != nil {
		plan = s.planWarm(cfg.Warm)
	}
	states := make([]*prefixState, len(s.prefixes))
	err := pool.ForEachM(ctx, max(cfg.Parallelism, 1), len(s.prefixes), func(i int) error {
		wl := getWorklist(cfg.Topo.NumRouters(), cfg.order)
		ps, err := s.convergePrefix(ctx, s.prefixes[i], plan, wl)
		worklists.Put(wl)
		states[i] = ps
		return err
	}, cfg.Metrics.poolMetrics())
	if err != nil {
		return nil, err
	}
	for i, p := range s.prefixes {
		s.per[p] = states[i]
		if plan != nil && states[i] == prior.per[p] {
			s.warmSkipped++
			continue
		}
		if plan != nil {
			s.warmDirty++
		}
		cfg.Metrics.prefixConverged(states[i].decisions, plan != nil)
	}
	if plan != nil {
		cfg.Metrics.prefixesSkipped(s.warmSkipped)
	}
	// Only this compute reads the delta. Kept, its Prior would link every
	// state a long-lived network converges into one chain.
	s.cfg.Warm = nil
	return s, nil
}

// buildLayout enumerates the live eBGP sessions into their flattened,
// deterministic slot index.
func buildLayout(cfg *Config) *sessionLayout {
	topo := cfg.Topo
	byRouter := make([][]session, topo.NumRouters())
	border := make([]bool, topo.NumRouters())
	for _, l := range topo.Links() {
		if l.Kind != topology.Inter {
			continue
		}
		border[l.A], border[l.B] = true, true
		if !cfg.IsLinkUp(l.ID) || !cfg.IsRouterUp(l.A) || !cfg.IsRouterUp(l.B) {
			continue
		}
		asA, asB := topo.RouterAS(l.A), topo.RouterAS(l.B)
		relAB, relBA := topo.Rel(asA, asB), topo.Rel(asB, asA)
		byRouter[l.A] = append(byRouter[l.A], session{Local: l.A, Remote: l.B, Rel: relAB, RemoteRel: relBA})
		byRouter[l.B] = append(byRouter[l.B], session{Local: l.B, Remote: l.A, Rel: relBA, RemoteRel: relAB})
	}
	ly := &sessionLayout{start: make([]int, topo.NumRouters()+1), ibgp: make([][]topology.RouterID, topo.NumRouters())}
	borders := make([]topology.RouterID, 0, topo.NumRouters())
	for _, asn := range topo.ASNumbers() {
		routers, from := topo.AS(asn).Routers, len(borders)
		for _, r := range routers {
			if border[r] {
				borders = append(borders, r)
			}
		}
		for _, r := range routers {
			ly.ibgp[r] = borders[from:len(borders):len(borders)]
		}
	}
	for r, ss := range byRouter {
		// Deterministic order for reproducible tie-breaking paths.
		sort.Slice(ss, func(i, j int) bool { return ss[i].Remote < ss[j].Remote })
		ly.start[r] = len(ly.flat)
		ly.flat = append(ly.flat, ss...)
	}
	ly.start[topo.NumRouters()] = len(ly.flat)
	// Sessions come in pairs, so every slot has its reverse.
	ly.rev = make([]int32, len(ly.flat))
	for i, e := range ly.flat {
		ly.rev[i] = int32(ly.slot(e.Remote, e.Local))
	}
	return ly
}

// convergePrefix converges prefix p on the worklist wl. A cold compute
// (nil plan), or a prefix the prior state lacks or whose origin moved,
// starts from empty RIBs with the origin AS's routers queued. Otherwise
// the plan queues the routers its delta reaches: a prefix with none shares
// the prior state by pointer, and any other drains from a copy of the
// prior routes remapped onto the current session layout.
func (s *State) convergePrefix(ctx context.Context, p Prefix, plan *warmPlan, wl *worklist) (*prefixState, error) {
	origin := s.cfg.Origins[p]
	var old *prefixState
	if plan != nil && plan.prior.cfg.Origins[p] == origin {
		old = plan.prior.per[p]
	}
	if old != nil {
		if plan.seed(s, p, old, wl); wl.n == 0 {
			return old, nil
		}
	}
	ps := &prefixState{
		best:   make([]*Route, s.cfg.Topo.NumRouters()),
		adj:    make([]*Route, len(s.layout.flat)),
		layout: s.layout,
	}
	if old == nil {
		if as := s.cfg.Topo.AS(origin); as != nil {
			for _, r := range as.Routers {
				wl.push(r)
			}
		}
	} else {
		copy(ps.best, old.best)
		plan.copyAdj(ps, old)
		plan.refreshSlots(s, p, ps, wl)
	}
	decisions, err := s.drain(ctx, p, origin, ps, wl)
	if err != nil {
		return nil, err
	}
	ps.decisions = decisions
	return ps, nil
}

// drain runs p's fixpoint on ps: it pops routers off wl and re-decides
// each, and where a router's best route changes it re-exports that route
// over the router's sessions, queueing every neighbour whose Adj-RIB-In
// slot changed and, for an eBGP-learned best, the routers of its AS, which
// read it over iBGP. Every router outside wl already holds the decision
// its inputs give, so ps is the fixpoint once wl is empty. drain returns
// the decisions made; once they exceed the budget, or ctx is cancelled
// (checked every 1024 decisions), it empties wl and returns an error.
//
// Routes are immutable and shared: decide returns the router's current
// best itself when the winner equals it, and export the slot's current
// route, so a pointer comparison detects every change and a decision that
// changes nothing allocates nothing.
func (s *State) drain(ctx context.Context, p Prefix, origin topology.ASN, ps *prefixState, wl *worklist) (int, error) {
	topo, ly := s.cfg.Topo, s.layout
	budget := s.cfg.budget
	if budget == 0 {
		budget = 500 * topo.NumRouters()
	}
	decisions := 0
	for wl.n > 0 {
		if decisions == budget {
			wl.clear()
			return decisions, fmt.Errorf("bgp: prefix %s: no convergence after %d decisions", p, decisions)
		}
		if decisions&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				wl.clear()
				return decisions, err
			}
		}
		r := wl.pop()
		decisions++
		var nb *Route
		if s.cfg.IsRouterUp(r) {
			nb = s.decide(r, p, origin, ps)
		}
		prev := ps.best[r]
		if nb == prev {
			continue
		}
		ps.best[r] = nb
		for i := ly.start[r]; i < ly.start[r+1]; i++ {
			s.refresh(int(ly.rev[i]), p, ps, wl)
		}
		if ibgpVisible(prev) || ibgpVisible(nb) {
			for _, q := range topo.AS(topo.RouterAS(r)).Routers {
				if q != r {
					wl.push(q)
				}
			}
		}
	}
	return decisions, nil
}

// refresh recomputes Adj-RIB-In slot j from its exporter's current best
// and, when the slot changes, queues the receiving router.
func (s *State) refresh(j int, p Prefix, ps *prefixState, wl *worklist) {
	e := s.layout.flat[j]
	if in := s.export(e, p, ps, ps.adj[j]); in != ps.adj[j] {
		ps.adj[j] = in
		wl.push(e.Local)
	}
}

// ibgpVisible reports whether a router's best is one its AS-mates read
// over iBGP: an eBGP-learned route (see decide).
func ibgpVisible(b *Route) bool {
	return b != nil && !b.viaIBGP && !b.Local
}

// worklist is the FIFO of routers whose decision inputs changed: a ring of
// NumRouters slots with an in-queue bitmap, so a router is queued at most
// once and the ring cannot overflow. Every drain leaves it empty, so the
// per-prefix tasks of every compute reuse worklists through a pool.
type worklist struct {
	ring   []topology.RouterID
	head   int
	n      int
	queued []uint64
	// order is Config.order: nil pops the FIFO head.
	order func(n int) int
}

// worklists holds empty worklists between per-prefix tasks.
var worklists sync.Pool

// getWorklist returns an empty worklist for a topology of the given router
// count, reusing a pooled one that is large enough.
func getWorklist(routers int, order func(int) int) *worklist {
	words := (routers + 63) / 64
	wl, _ := worklists.Get().(*worklist)
	if wl == nil || cap(wl.ring) < routers || cap(wl.queued) < words {
		wl = &worklist{ring: make([]topology.RouterID, routers), queued: make([]uint64, words)}
	}
	wl.ring, wl.queued, wl.head, wl.order = wl.ring[:routers], wl.queued[:words], 0, order
	return wl
}

// push queues r unless it is already queued.
func (w *worklist) push(r topology.RouterID) {
	word, bit := r>>6, uint64(1)<<(r&63)
	if w.queued[word]&bit != 0 {
		return
	}
	w.queued[word] |= bit
	tail := w.head + w.n
	if tail >= len(w.ring) {
		tail -= len(w.ring)
	}
	w.ring[tail] = r
	w.n++
}

// pop dequeues the next router; w must not be empty.
func (w *worklist) pop() topology.RouterID {
	if w.order != nil {
		k := w.head + w.order(w.n)
		if k >= len(w.ring) {
			k -= len(w.ring)
		}
		w.ring[w.head], w.ring[k] = w.ring[k], w.ring[w.head]
	}
	r := w.ring[w.head]
	if w.head++; w.head == len(w.ring) {
		w.head = 0
	}
	w.n--
	w.queued[r>>6] &^= uint64(1) << (r & 63)
	return r
}

// clear empties w.
func (w *worklist) clear() {
	w.head, w.n = 0, 0
	clear(w.queued)
}

// export computes the route session e's Local receives from its Remote
// for prefix p — Remote's advertisement under Gao–Rexford policy and the
// active export filters — reading Remote's best from ps; nil means
// nothing is advertised. When the advertisement equals prevIn, the
// slot's current route, prevIn itself is returned.
func (s *State) export(e session, p Prefix, ps *prefixState, prevIn *Route) *Route {
	from := e.Remote
	b := ps.best[from]
	if b == nil {
		return nil
	}
	if !s.exportAllowed(b, e.RemoteRel) {
		return nil
	}
	if s.filtered(from, e.Local, p) {
		return nil
	}
	fromAS := s.cfg.Topo.RouterAS(from)
	if prevIn.advertises(p, from, fromAS, b.ASPath) {
		return prevIn
	}
	return &Route{
		Prefix:     p,
		ASPath:     append([]topology.ASN{fromAS}, b.ASPath...),
		Egress:     from, // meaningful to the receiver as "came from"
		PeerRouter: from,
	}
}

// advertises reports whether r equals the route export builds for
// prefix p from router from in AS fromAS, whose best route has AS path
// tail.
func (r *Route) advertises(p Prefix, from topology.RouterID, fromAS topology.ASN, tail []topology.ASN) bool {
	return r != nil && r.Prefix == p && r.LocalPref == 0 && !r.Local && !r.viaIBGP &&
		r.Egress == from && r.PeerRouter == from &&
		len(r.ASPath) == len(tail)+1 && r.ASPath[0] == fromAS && slices.Equal(r.ASPath[1:], tail)
}

// exportAllowed implements Gao–Rexford: own and customer routes go to
// everyone; peer and provider routes go to customers only.
func (s *State) exportAllowed(b *Route, relToNeighbor topology.Rel) bool {
	if b.Local {
		return true
	}
	if b.LocalPref == prefCustomer {
		return true
	}
	return relToNeighbor == topology.Customer
}

func (s *State) filtered(from, to topology.RouterID, p Prefix) bool {
	for _, f := range s.cfg.Filters {
		if f.Router == from && f.Peer == to && f.Prefix == p {
			return true
		}
	}
	return false
}

// decide runs the BGP decision process at router r for prefix p, which
// AS origin originates, over the Adj-RIB-Ins and iBGP-learned bests in
// ps. Candidates are compared as stack values, and when the winner equals
// ps.best[r], r's current best, that route is returned instead of a new
// one.
func (s *State) decide(r topology.RouterID, p Prefix, origin topology.ASN, ps *prefixState) *Route {
	topo := s.cfg.Topo
	asn := topo.RouterAS(r)

	var best, c Route
	found := false

	// Locally originated.
	if origin == asn {
		best, found = Route{Prefix: p, LocalPref: prefLocal, Egress: r, Local: true}, true
	}

	// eBGP: routes in Adj-RIB-In from live sessions. The fixpoint always
	// drains states indexed by s.layout, so the session slot addresses the
	// Adj-RIB-In directly.
	base := s.layout.start[r]
	for i, e := range s.layout.of(r) {
		adv := ps.adj[base+i]
		if adv == nil || adv.hasAS(asn) {
			continue
		}
		c = Route{
			Prefix:     p,
			ASPath:     adv.ASPath,
			LocalPref:  prefForRel(e.Rel),
			Egress:     r,
			PeerRouter: e.Remote,
		}
		if !found || s.better(r, &c, &best) {
			best, found = c, true
		}
	}

	// iBGP full mesh: adopt same-AS border routers' eBGP bests, subject
	// to IGP reachability of the egress.
	for _, peer := range s.layout.ibgp[r] {
		pb := ps.best[peer]
		if peer == r || pb == nil || pb.viaIBGP || pb.Local {
			// iBGP-learned routes are not re-advertised over iBGP;
			// local origination is known to every router already.
			continue
		}
		if !s.cfg.IsRouterUp(peer) || !s.cfg.IGP.Reachable(r, pb.Egress) {
			continue
		}
		c = *pb
		c.viaIBGP = true
		if !found || s.better(r, &c, &best) {
			best, found = c, true
		}
	}

	if !found {
		return nil
	}
	if prev := ps.best[r]; best.equal(prev) {
		return prev
	}
	out := best
	return &out
}

func prefForRel(rel topology.Rel) int {
	switch rel {
	case topology.Customer:
		return prefCustomer
	case topology.Peer:
		return prefPeer
	default:
		return prefProvider
	}
}

// better reports whether candidate a beats b at router r under the decision
// process: local-pref, AS-path length, eBGP over iBGP, IGP distance to
// egress (hot potato), then lowest egress and peer router IDs.
func (s *State) better(r topology.RouterID, a, b *Route) bool {
	if b == nil {
		return true
	}
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if len(a.ASPath) != len(b.ASPath) {
		return len(a.ASPath) < len(b.ASPath)
	}
	if a.viaIBGP != b.viaIBGP {
		return !a.viaIBGP
	}
	da, db := s.cfg.IGP.Dist(r, a.Egress), s.cfg.IGP.Dist(r, b.Egress)
	if da != db {
		return da < db
	}
	if a.Egress != b.Egress {
		return a.Egress < b.Egress
	}
	return a.PeerRouter < b.PeerRouter
}

// Best returns router r's best route for prefix p.
func (s *State) Best(r topology.RouterID, p Prefix) (*Route, bool) {
	ps := s.per[p]
	if ps == nil || int(r) >= len(ps.best) || ps.best[r] == nil {
		return nil, false
	}
	return ps.best[r], true
}

// Prefixes returns the announced prefixes in sorted order. The returned
// slice is shared; callers must not modify it.
func (s *State) Prefixes() []Prefix { return s.prefixes }

// WarmStats reports how a warm compute split the prefixes: dirty prefixes
// drained a seeded worklist, skipped prefixes shared the prior state
// untouched. Both are zero for a cold compute.
func (s *State) WarmStats() (dirty, skipped int) { return s.warmDirty, s.warmSkipped }

// AdjInPrefixes returns the set of prefixes router r currently receives
// from eBGP neighbor `from`. Diffing this across a failure event yields the
// BGP withdrawals the paper's ND-bgpigp consumes.
func (s *State) AdjInPrefixes(r, from topology.RouterID) map[Prefix]bool {
	out := map[Prefix]bool{}
	for p, ps := range s.per {
		// Resolve through each prefixState's own layout: states shared from
		// a prior compute are indexed by the prior session layout.
		if ps.adjAt(r, from) != nil {
			out[p] = true
		}
	}
	return out
}

// EBGPNeighbors returns the remote routers of r's live eBGP sessions in
// ascending order.
func (s *State) EBGPNeighbors(r topology.RouterID) []topology.RouterID {
	var out []topology.RouterID
	for _, e := range s.layout.of(r) {
		out = append(out, e.Remote)
	}
	return out
}

// ASPathFrom returns the AS-level path from AS `from` to prefix p as a
// Looking Glass server in that AS would report it: the AS's own number
// followed by the AS path of its best route. ok is false when the AS has
// no route to p.
func (s *State) ASPathFrom(from topology.ASN, p Prefix) ([]topology.ASN, bool) {
	if s.cfg.Origins[p] == from {
		return []topology.ASN{from}, true
	}
	ps := s.per[p]
	if ps == nil {
		return nil, false
	}
	var best *Route
	for _, r := range s.cfg.Topo.AS(from).Routers {
		if b := ps.best[r]; b != nil && !b.viaIBGP {
			if best == nil || s.better(r, b, best) {
				best = b
			}
		}
	}
	if best == nil {
		return nil, false
	}
	return append([]topology.ASN{from}, best.ASPath...), true
}
