// Package netsim ties the substrates together into a runnable network: a
// topology with IGP and BGP state, failure injection (link failures, router
// failures, BGP export-filter misconfigurations), a forwarding engine, and
// simulated traceroute. It plays the role C-BGP plays in the paper's
// evaluation (§4).
package netsim

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"netdiag/internal/bgp"
	"netdiag/internal/igp"
	"netdiag/internal/pool"
	"netdiag/internal/probe"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// MaxTTL bounds the forwarding walk, like a real traceroute's max hop count.
const MaxTTL = 64

// Network is a simulated internetwork in a consistent, converged state.
// Mutate it with FailLink/FailRouter/AddExportFilter and call Reconverge
// before issuing new traceroutes.
//
// A converged Network is safe for concurrent reads (Traceroute, Mesh,
// AllPaths, the state accessors); the fault-injection mutators and
// Reconverge are not. To run fault scenarios concurrently on one topology,
// give each goroutine its own Fork.
type Network struct {
	topo     *topology.Topology
	linkUp   []bool
	routerUp []bool
	filters  []bgp.ExportFilter
	origins  map[bgp.Prefix]topology.ASN
	// linkUpFn/routerUpFn are the LinkIsUp/RouterIsUp method values, bound
	// once per Network: ReconvergeCtx hands them to the IGP and BGP layers
	// on every convergence, and binding there would allocate each time.
	linkUpFn   func(topology.LinkID) bool
	routerUpFn func(topology.RouterID) bool

	parallelism int
	met         *simMetrics

	igp       *igp.State
	bgp       *bgp.State
	converged bool
	// base is the last converged state reconvergence is computed as a
	// delta of (see ReconvergeCtx); nil until the first convergence.
	base *baseState
	// shared marks linkUp/routerUp/filters as aliased by a base snapshot
	// (the converged bgp.State keeps the filters) or a fork; mutators
	// clone them first (ensureOwned).
	shared bool
}

// baseState is an immutable snapshot of a converged network: the routing
// state plus the liveness arrays it was computed under (the BGP layer
// diffs the filters itself). Forks share it by pointer; diffing the live
// liveness arrays against it yields the reconvergence delta.
type baseState struct {
	igp      *igp.State
	bgp      *bgp.State
	linkUp   []bool
	routerUp []bool
}

// captureBase snapshots the network's current converged state and fault
// configuration. The returned baseState is never mutated afterwards: the
// snapshot aliases the live arrays and flips the network to copy-on-write
// (the next fault mutation clones them), so reconverging a long chain of
// deltas never re-copies an unchanged fault configuration.
func (n *Network) captureBase() *baseState {
	n.shared = true
	return &baseState{
		igp:      n.igp,
		bgp:      n.bgp,
		linkUp:   n.linkUp,
		routerUp: n.routerUp,
	}
}

// ensureOwned clones the fault arrays when they alias a base snapshot or
// a forked sibling, so mutations never reach shared state.
func (n *Network) ensureOwned() {
	if !n.shared {
		return
	}
	// One backing buffer for both liveness arrays; they are never appended
	// to, only indexed.
	buf := make([]bool, len(n.linkUp)+len(n.routerUp))
	copy(buf, n.linkUp)
	copy(buf[len(n.linkUp):], n.routerUp)
	n.linkUp, n.routerUp = buf[:len(n.linkUp):len(n.linkUp)], buf[len(n.linkUp):]
	n.filters = append([]bgp.ExportFilter(nil), n.filters...)
	n.shared = false
}

// reconvergeDelta is the difference between the live fault configuration
// and the base snapshot, in the terms the incremental pipeline consumes.
type reconvergeDelta struct {
	base              *baseState
	dirtyASes         []topology.ASN
	failedRouters     []topology.RouterID
	restored          bool // a link or router came back up: BGP converges cold
	sessionsUnchanged bool
}

// computeDelta diffs the current fault arrays against the base snapshot.
// It returns nil when no base exists (first convergence) and the cold
// path must run.
func (n *Network) computeDelta() *reconvergeDelta {
	if n.base == nil {
		return nil
	}
	b := n.base
	d := &reconvergeDelta{base: b, sessionsUnchanged: true}
	for i := range n.linkUp {
		if n.linkUp[i] == b.linkUp[i] {
			continue
		}
		l := n.topo.Link(topology.LinkID(i))
		if l.Kind == topology.Intra {
			d.dirtyASes = appendUniqueAS(d.dirtyASes, n.topo.RouterAS(l.A))
		} else {
			d.sessionsUnchanged = false
		}
		if !b.linkUp[i] {
			// Link restored: new sessions/paths can appear anywhere.
			d.restored = true
		}
	}
	for i := range n.routerUp {
		if n.routerUp[i] == b.routerUp[i] {
			continue
		}
		r := topology.RouterID(i)
		d.dirtyASes = appendUniqueAS(d.dirtyASes, n.topo.RouterAS(r))
		d.sessionsUnchanged = false
		if b.routerUp[i] {
			d.failedRouters = append(d.failedRouters, r)
		} else {
			d.restored = true
		}
	}
	sort.Slice(d.dirtyASes, func(i, j int) bool { return d.dirtyASes[i] < d.dirtyASes[j] })
	return d
}

// appendUniqueAS adds an AS to the dirty list unless present. Deltas touch
// a couple of ASes at most, so a linear-scan set beats a map here (this
// runs on every incremental reconvergence).
func appendUniqueAS(list []topology.ASN, as topology.ASN) []topology.ASN {
	for _, seen := range list {
		if seen == as {
			return list
		}
	}
	return append(list, as)
}

// simMetrics holds the simulator-level telemetry handles. A nil *simMetrics
// disables all of it, including the clock reads around the phases.
type simMetrics struct {
	reconverges    *telemetry.Counter
	reconvergesInc *telemetry.Counter
	asRebuilds     *telemetry.Counter
	spfNS          *telemetry.Histogram
	bgpNS          *telemetry.Histogram
	meshNS         *telemetry.Histogram
	withdrawals    *telemetry.Counter
	bgpM           *bgp.Metrics
	probeM         *probe.Metrics
}

func newSimMetrics(r *telemetry.Registry) *simMetrics {
	if r == nil {
		return nil
	}
	return &simMetrics{
		reconverges:    r.Counter("netsim.reconverges"),
		reconvergesInc: r.Counter("netsim.reconverges_incremental"),
		asRebuilds:     r.Counter("igp.as_rebuilds"),
		spfNS:          r.Histogram("netsim.phase.spf_ns", telemetry.DurationBuckets),
		bgpNS:          r.Histogram("netsim.phase.bgp_ns", telemetry.DurationBuckets),
		meshNS:         r.Histogram("netsim.phase.mesh_ns", telemetry.DurationBuckets),
		withdrawals:    r.Counter("bgp.withdrawals_seen"),
		bgpM:           bgp.NewMetrics(r),
		probeM:         probe.NewMetrics(r),
	}
}

// phaseStart returns the clock reading a later phase observation needs,
// without touching the clock when telemetry is off.
func (m *simMetrics) phaseStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	return telemetry.Now()
}

func (m *simMetrics) bgpMetrics() *bgp.Metrics {
	if m == nil {
		return nil
	}
	return m.bgpM
}

func (m *simMetrics) probeMetrics() *probe.Metrics {
	if m == nil {
		return nil
	}
	return m.probeM
}

// Option configures a Network at construction time.
type Option func(*Network)

// WithParallelism bounds the worker pool used by convergence (per-prefix
// BGP fixpoints, per-AS SPF) and by Mesh (per-pair traceroutes). n <= 1
// keeps everything sequential, reproducing the exact single-threaded
// behavior; n <= 0 selects runtime.GOMAXPROCS(0). The converged state and
// all measurements are identical at any parallelism level.
func WithParallelism(n int) Option {
	return func(net *Network) { net.parallelism = pool.Size(n) }
}

// WithTelemetry attaches a telemetry registry: convergence-phase latency
// histograms ("netsim.phase.{spf,bgp,mesh}_ns"), the "netsim.reconverges"
// and "bgp.withdrawals_seen" counters, and the bgp/probe/pool layer metrics
// of everything the network drives. A nil registry (the default) disables
// all of it — telemetry never changes routing or measurement results.
func WithTelemetry(r *telemetry.Registry) Option {
	return func(net *Network) { net.met = newSimMetrics(r) }
}

// New builds a network announcing one prefix per AS in originASes and
// converges it.
func New(topo *topology.Topology, originASes []topology.ASN, opts ...Option) (*Network, error) {
	n := &Network{
		topo:        topo,
		linkUp:      make([]bool, topo.NumLinks()),
		routerUp:    make([]bool, topo.NumRouters()),
		origins:     map[bgp.Prefix]topology.ASN{},
		parallelism: 1,
	}
	n.linkUpFn, n.routerUpFn = n.LinkIsUp, n.RouterIsUp
	for _, o := range opts {
		o(n)
	}
	for i := range n.linkUp {
		n.linkUp[i] = true
	}
	for i := range n.routerUp {
		n.routerUp[i] = true
	}
	for _, as := range originASes {
		if topo.AS(as) == nil {
			return nil, fmt.Errorf("netsim: origin AS%d not in topology", as)
		}
		n.origins[bgp.PrefixFor(as)] = as
	}
	if err := n.Reconverge(); err != nil {
		return nil, err
	}
	return n, nil
}

// Fork returns an independent copy of the network sharing the immutable
// substrate (topology, origins), the fault configuration and
// the routing state. Faulting and reconverging the fork never touches the
// parent, so forks are how concurrent trials run against one environment,
// and a fresh fork of a converged network is how a caller gets back to its
// warm state: the fork starts converged, and its next Reconverge is a
// delta against the parent's converged base. A fork of a network with
// unconverged mutations is unconverged.
func (n *Network) Fork() *Network {
	f := &Network{
		topo:        n.topo,
		origins:     n.origins,
		parallelism: n.parallelism,
		met:         n.met,
		igp:         n.igp,
		bgp:         n.bgp,
		converged:   n.converged,
		base:        n.base,
	}
	f.linkUpFn, f.routerUpFn = f.LinkIsUp, f.RouterIsUp
	if n.shared {
		// The parent's arrays are already frozen copy-on-write (a base
		// snapshot aliases them), so the fork can alias them too — its
		// first mutation clones. Fork never writes to the parent, keeping
		// concurrent Forks of one parent race-free.
		f.linkUp, f.routerUp, f.filters = n.linkUp, n.routerUp, n.filters
		f.shared = true
	} else {
		f.linkUp = append([]bool(nil), n.linkUp...)
		f.routerUp = append([]bool(nil), n.routerUp...)
		f.filters = append([]bgp.ExportFilter(nil), n.filters...)
	}
	return f
}

// Topology returns the underlying topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// IGP returns the converged IGP state.
func (n *Network) IGP() *igp.State { return n.igp }

// BGP returns the converged BGP state.
func (n *Network) BGP() *bgp.State { return n.bgp }

// LinkIsUp reports whether a physical link is currently up (both the link
// itself and both endpoint routers).
func (n *Network) LinkIsUp(id topology.LinkID) bool {
	l := n.topo.Link(id)
	return n.linkUp[id] && n.routerUp[l.A] && n.routerUp[l.B]
}

// RouterIsUp reports router liveness.
func (n *Network) RouterIsUp(r topology.RouterID) bool { return n.routerUp[r] }

// FailLink takes a physical link down. Call Reconverge afterwards.
func (n *Network) FailLink(id topology.LinkID) {
	n.ensureOwned()
	n.linkUp[id] = false
	n.converged = false
}

// RestoreLink brings a physical link back up. Call Reconverge afterwards.
func (n *Network) RestoreLink(id topology.LinkID) {
	n.ensureOwned()
	n.linkUp[id] = true
	n.converged = false
}

// FailRouter takes a router down along with all its links' sessions.
func (n *Network) FailRouter(r topology.RouterID) {
	n.ensureOwned()
	n.routerUp[r] = false
	n.converged = false
}

// AddExportFilter installs a BGP export filter (a simulated
// misconfiguration). Call Reconverge afterwards.
func (n *Network) AddExportFilter(f bgp.ExportFilter) {
	n.ensureOwned()
	n.filters = append(n.filters, f)
	n.converged = false
}

// ClearFaults restores all links and routers and removes all filters.
func (n *Network) ClearFaults() {
	n.ensureOwned()
	for i := range n.linkUp {
		n.linkUp[i] = true
	}
	for i := range n.routerUp {
		n.routerUp[i] = true
	}
	n.filters = nil
	n.converged = false
}

// Reconverge recomputes IGP and BGP state for the current fault set.
func (n *Network) Reconverge() error {
	return n.ReconvergeCtx(context.Background())
}

// ReconvergeCtx is Reconverge with cancellation: ctx flows into the BGP
// fixpoint, which checks it between per-prefix tasks and every 1024
// decisions within one, so a convergence under a per-request deadline aborts
// promptly with ctx.Err() and leaves the network unconverged. For an
// uncancelled context the converged state is identical to Reconverge. This
// is the warm-path entry point the ndserve diagnosis service forks through.
//
// After the first convergence (and on every Fork, which inherits its
// parent's converged snapshot) reconvergence is incremental: the fault
// arrays are diffed against the last converged base, per-AS SPF runs only
// for ASes the delta touches (every other AS shares the base's tables),
// and the BGP fixpoint is warm-started from the base's routes with
// prefixes the delta provably cannot affect sharing the base state
// untouched, unless a link or router came back up (BGP then converges
// cold). The result is route-for-route identical to a cold reconvergence,
// which the first convergence runs and the differential tests reach
// through reconvergeCtx with a nil delta.
func (n *Network) ReconvergeCtx(ctx context.Context) error {
	return n.reconvergeCtx(ctx, n.computeDelta())
}

// reconvergeCtx applies a precomputed delta (nil forces the cold path,
// which the first convergence and the differential tests take).
func (n *Network) reconvergeCtx(ctx context.Context, d *reconvergeDelta) error {
	isUp := n.linkUpFn
	start := n.met.phaseStart()
	if d == nil {
		n.igp = igp.New(n.topo, isUp, n.parallelism)
	} else {
		n.igp = igp.Rebuild(d.base.igp, isUp, d.dirtyASes, n.parallelism)
		if n.met != nil {
			n.met.asRebuilds.Add(int64(len(d.dirtyASes)))
		}
	}
	if n.met != nil {
		n.met.spfNS.Observe(int64(telemetry.Since(start)))
		start = telemetry.Now()
	}
	cfg := bgp.Config{
		Topo:        n.topo,
		IGP:         n.igp,
		IsLinkUp:    isUp,
		IsRouterUp:  n.routerUpFn,
		Origins:     n.origins,
		Filters:     n.filters,
		Parallelism: n.parallelism,
		Metrics:     n.met.bgpMetrics(),
	}
	if d != nil && !d.restored {
		cfg.Warm = &bgp.Delta{
			Prior:             d.base.bgp,
			FailedRouters:     d.failedRouters,
			DirtyASes:         d.dirtyASes,
			SessionsUnchanged: d.sessionsUnchanged,
		}
	}
	st, err := bgp.ComputeCtx(ctx, cfg)
	if err != nil {
		return err
	}
	if n.met != nil {
		n.met.bgpNS.Observe(int64(telemetry.Since(start)))
		n.met.reconverges.Inc()
		if d != nil {
			n.met.reconvergesInc.Inc()
		}
	}
	n.bgp = st
	n.converged = true
	n.base = n.captureBase()
	return nil
}

// Converged reports whether the network's routing state is current (no
// fault mutations are pending a Reconverge).
func (n *Network) Converged() bool { return n.converged }

// forward computes the next hop from cur towards destination router dst,
// whose AS originates prefix p, or ok=false on a blackhole.
//
//ndlint:hotpath
func (n *Network) forward(cur, dst topology.RouterID, p bgp.Prefix) (topology.RouterID, bool) {
	topo := n.topo
	if topo.RouterAS(cur) == topo.RouterAS(dst) {
		return n.igp.NextHop(cur, dst)
	}
	rt, ok := n.bgp.Best(cur, p)
	if !ok {
		return 0, false
	}
	if rt.Egress == cur && !rt.Local {
		// We are the border router: hand off over the eBGP session.
		return rt.PeerRouter, true
	}
	return n.igp.NextHop(cur, rt.Egress)
}

// Traceroute walks the forwarding state from src to dst and reports the
// hop sequence, like the paper's sensors do. The network must be converged.
func (n *Network) Traceroute(src, dst topology.RouterID) *probe.Path {
	if !n.converged {
		panic("netsim: Traceroute on unconverged network")
	}
	// The walk appends to a stack buffer that the longest walk fits in, so
	// the path's hops are allocated once, at their final length.
	var buf [MaxTTL + 1]probe.Hop
	hops, ok := n.trace(buf[:0], src, dst)
	return &probe.Path{Src: src, Dst: dst, Hops: slices.Clone(hops), OK: ok}
}

// trace appends the hops of the forwarding walk from src to dst to hops
// and reports whether the walk reached dst.
func (n *Network) trace(hops []probe.Hop, src, dst topology.RouterID) ([]probe.Hop, bool) {
	hops = append(hops, n.hop(src))
	if !n.routerUp[src] || !n.routerUp[dst] {
		return hops, false
	}
	pfx := bgp.PrefixFor(n.topo.RouterAS(dst))
	cur := src
	for ttl := 0; ttl < MaxTTL; ttl++ {
		if cur == dst {
			return hops, true
		}
		if walked(hops, cur) {
			return hops, false // forwarding loop: path fails
		}
		next, ok := n.forward(cur, dst, pfx)
		if !ok || !n.routerUp[next] {
			return hops, false // blackhole
		}
		if l, ok := n.topo.LinkBetween(cur, next); !ok || !n.LinkIsUp(l.ID) {
			// The control plane points at a dead link (stale route):
			// traffic is dropped here.
			return hops, false
		}
		cur = next
		hops = append(hops, n.hop(cur))
	}
	return hops, false
}

//ndlint:hotpath
func (n *Network) hop(r topology.RouterID) probe.Hop {
	rt := n.topo.Router(r)
	return probe.Hop{Addr: rt.Addr, Router: r, AS: rt.AS}
}

// walked reports whether the walk whose hops so far are hops (ending at
// cur) has already forwarded from cur: a forwarding loop. A walk has at
// most MaxTTL+1 hops, so scanning it beats keeping a visited set.
func walked(hops []probe.Hop, cur topology.RouterID) bool {
	for _, h := range hops[:len(hops)-1] {
		if h.Router == cur {
			return true
		}
	}
	return false
}

// forwardAll returns every next hop cur may use towards dst, whose AS
// originates prefix p, under ECMP: the full equal-cost next-hop set
// inside an AS, the single eBGP handoff at a border. It returns nil on a
// blackhole.
func (n *Network) forwardAll(cur, dst topology.RouterID, p bgp.Prefix) []topology.RouterID {
	topo := n.topo
	if topo.RouterAS(cur) == topo.RouterAS(dst) {
		return n.igp.NextHops(cur, dst)
	}
	rt, ok := n.bgp.Best(cur, p)
	if !ok {
		return nil
	}
	if rt.Egress == cur && !rt.Local {
		return []topology.RouterID{rt.PeerRouter}
	}
	return n.igp.NextHops(cur, rt.Egress)
}

// AllPaths enumerates the distinct forwarding paths from src to dst when
// routers spread traffic over equal-cost shortest paths — what a
// Paris-traceroute-style measurement discovers (paper §2.2). At most limit
// paths are returned (0 means 64). Only complete paths are reported; an
// empty result means dst is unreachable.
func (n *Network) AllPaths(src, dst topology.RouterID, limit int) []*probe.Path {
	if !n.converged {
		panic("netsim: AllPaths on unconverged network")
	}
	if limit <= 0 {
		limit = 64
	}
	var out []*probe.Path
	if !n.routerUp[src] || !n.routerUp[dst] {
		return nil
	}
	pfx := bgp.PrefixFor(n.topo.RouterAS(dst))
	var walk func(cur topology.RouterID, hops []probe.Hop)
	walk = func(cur topology.RouterID, hops []probe.Hop) {
		if len(out) >= limit {
			return
		}
		if cur == dst {
			p := &probe.Path{Src: src, Dst: dst, OK: true}
			p.Hops = append(p.Hops, hops...)
			out = append(out, p)
			return
		}
		if len(hops) > MaxTTL || walked(hops, cur) {
			return
		}
		for _, next := range n.forwardAll(cur, dst, pfx) {
			if !n.routerUp[next] {
				continue
			}
			if l, ok := n.topo.LinkBetween(cur, next); !ok || !n.LinkIsUp(l.ID) {
				continue
			}
			walk(next, append(hops, n.hop(next)))
		}
	}
	walk(src, []probe.Hop{n.hop(src)})
	return out
}

// Mesh runs the full mesh of traceroutes among the sensors. Sensor-pair
// paths are computed concurrently when the network was built with
// WithParallelism > 1; since each traceroute only reads the converged
// forwarding state, the mesh is identical at any parallelism level.
func (n *Network) Mesh(sensors []topology.RouterID) *probe.Mesh {
	m, _ := n.MeshCtx(context.Background(), sensors)
	return m
}

// MeshCtx is Mesh with cancellation: ctx is checked between sensor-pair
// traceroutes, so a full-mesh measurement under a per-request deadline
// aborts promptly with ctx.Err(). For an uncancelled context the mesh is
// identical to Mesh at any parallelism level.
func (n *Network) MeshCtx(ctx context.Context, sensors []topology.RouterID) (*probe.Mesh, error) {
	if !n.converged {
		panic("netsim: Mesh on unconverged network")
	}
	start := n.met.phaseStart()
	m, err := probe.FillMeshCtx(ctx, sensors, n.parallelism, func(i, j int) *probe.Path {
		return n.Traceroute(sensors[i], sensors[j])
	}, n.met.probeMetrics())
	if err != nil {
		return nil, err
	}
	if n.met != nil {
		n.met.meshNS.Observe(int64(telemetry.Since(start)))
	}
	return m, nil
}

// Withdrawal is a BGP withdrawal observed at an AS-X border router from an
// eBGP neighbor for a prefix (paper §3.3).
type Withdrawal struct {
	At     topology.RouterID
	From   topology.RouterID
	Prefix bgp.Prefix
}

// Withdrawals diffs the Adj-RIB-Ins of AS-X's border routers between two
// converged states and returns the withdrawals AS-X observed. Sessions
// that are down in the after state produce no withdrawals (that is a
// session loss, which AS-X observes through its own interface state, not
// through a BGP message).
func Withdrawals(topo *topology.Topology, before, after *bgp.State, asx topology.ASN) []Withdrawal {
	var out []Withdrawal
	for _, r := range topo.AS(asx).Routers {
		liveAfter := map[topology.RouterID]bool{}
		for _, nb := range after.EBGPNeighbors(r) {
			liveAfter[nb] = true
		}
		for _, nb := range before.EBGPNeighbors(r) {
			if !liveAfter[nb] {
				continue
			}
			pre := before.AdjInPrefixes(r, nb)
			post := after.AdjInPrefixes(r, nb)
			for p := range pre {
				if !post[p] {
					out = append(out, Withdrawal{At: r, From: nb, Prefix: p})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.Prefix < b.Prefix
	})
	return out
}

// ObserveWithdrawals returns the withdrawals AS-X observed between a prior
// converged state and the network's current one (see Withdrawals), counting
// them under "bgp.withdrawals_seen" when telemetry is attached.
func (n *Network) ObserveWithdrawals(before *bgp.State, asx topology.ASN) []Withdrawal {
	ws := Withdrawals(n.topo, before, n.bgp, asx)
	if n.met != nil {
		n.met.withdrawals.Add(int64(len(ws)))
	}
	return ws
}

// IGPLinkDowns returns the failed intra-AS links of asx — the "link down"
// IGP messages the troubleshooter in AS-X observes from its own network.
func (n *Network) IGPLinkDowns(asx topology.ASN) []igp.LinkDown {
	var out []igp.LinkDown
	for _, l := range n.topo.IntraLinks(asx) {
		if !n.LinkIsUp(l.ID) {
			out = append(out, igp.LinkDown{AS: asx, Link: l.ID})
		}
	}
	return out
}
