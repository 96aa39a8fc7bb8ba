package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"netdiag/internal/bgp"
	"netdiag/internal/core"
	"netdiag/internal/igp"
	"netdiag/internal/ip2as"
	"netdiag/internal/lookingglass"
	"netdiag/internal/netsim"
	"netdiag/internal/probe"
	"netdiag/internal/topology"
)

// Placement selects a sensor placement strategy (§4, Figure 5).
type Placement int

const (
	// PlaceRandomStubs places sensors at randomly chosen stub ASes — the
	// paper's worst-case default for all §5 results.
	PlaceRandomStubs Placement = iota
	// PlaceSameAS places every sensor inside one core AS.
	PlaceSameAS
	// PlaceDistantAS splits the sensors between two tier-2 ASes.
	PlaceDistantAS
	// PlaceDistantSplit is DistantAS with some sensors moved onto the
	// inter-AS path between the two networks.
	PlaceDistantSplit
)

// String names the placement for figure labels.
func (p Placement) String() string {
	switch p {
	case PlaceRandomStubs:
		return "random"
	case PlaceSameAS:
		return "same AS"
	case PlaceDistantAS:
		return "distant AS"
	case PlaceDistantSplit:
		return "distant AS, split path"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Env is one converged scenario: a network with a sensor overlay and its
// pre-failure measurements. The figure harness builds one per sensor
// placement and ndserve keeps one per warm scenario. After construction an
// Env is never mutated: RunTrial and every served request inject faults
// into a private Fork of Net, so concurrent use of one Env is safe.
type Env struct {
	Topo       *topology.Topology
	Net        *netsim.Network
	Sensors    []topology.RouterID
	SensorASes []topology.ASN
	Prefixes   []bgp.Prefix
	BeforeMesh *probe.Mesh
	BeforeBGP  *bgp.State
	// E is the probed directed physical link universe.
	E []core.Link
	// PhysProbed is the deduplicated set of probed physical links.
	PhysProbed []topology.LinkID
	// IP2AS is the troubleshooter's IP-to-AS table built from the
	// announced address space (§3.1).
	IP2AS *ip2as.Table

	// before is BeforeMesh adapted through IP2AS and reuse indexes it by
	// sensor pair (see adaptBefore and MeasurementsAfter).
	before []*core.TracePath
	reuse  [][]*core.TracePath
}

// PlaceSensors picks sensor routers for a placement strategy. It returns
// the sensor routers and their (per-sensor) ASes.
func PlaceSensors(res *topology.Research, kind Placement, n int, rng *rand.Rand) ([]topology.RouterID, []topology.ASN, error) {
	topo := res.Topo
	var sensors []topology.RouterID
	switch kind {
	case PlaceRandomStubs:
		if n > len(res.Stubs) {
			return nil, nil, fmt.Errorf("experiment: %d sensors exceed %d stubs", n, len(res.Stubs))
		}
		for _, idx := range rng.Perm(len(res.Stubs))[:n] {
			sensors = append(sensors, topo.AS(res.Stubs[idx]).Routers[0])
		}
	case PlaceSameAS:
		as := res.Cores[rng.Intn(len(res.Cores))]
		routers := topo.AS(as).Routers
		perm := rng.Perm(len(routers))
		for i := 0; i < n; i++ {
			sensors = append(sensors, routers[perm[i%len(routers)]])
		}
	case PlaceDistantAS, PlaceDistantSplit:
		perm := rng.Perm(len(res.Tier2))
		a, b := res.Tier2[perm[0]], res.Tier2[perm[1]]
		ra, rb := topo.AS(a).Routers, topo.AS(b).Routers
		pa, pb := rng.Perm(len(ra)), rng.Perm(len(rb))
		for i := 0; i < n/2; i++ {
			sensors = append(sensors, ra[pa[i%len(ra)]])
		}
		for i := 0; i < n-n/2; i++ {
			sensors = append(sensors, rb[pb[i%len(rb)]])
		}
		if kind == PlaceDistantSplit && n >= 4 {
			mid, err := interASPathRouters(res, a, b)
			if err != nil {
				return nil, nil, err
			}
			if len(mid) > 0 {
				// Replace up to a quarter of the sensors with routers on
				// the inter-AS path.
				k := n / 4
				for i := 0; i < k && i < len(mid); i++ {
					sensors[len(sensors)-1-i] = mid[i%len(mid)]
				}
			}
		}
	default:
		return nil, nil, fmt.Errorf("experiment: unknown placement %v", kind)
	}
	ases := make([]topology.ASN, len(sensors))
	for i, s := range sensors {
		ases[i] = topo.RouterAS(s)
	}
	return sensors, ases, nil
}

// interASPathRouters returns the routers strictly between ASes a and b on
// the forwarding path between their hubs, using a throwaway network.
func interASPathRouters(res *topology.Research, a, b topology.ASN) ([]topology.RouterID, error) {
	n, err := netsim.New(res.Topo, []topology.ASN{a, b})
	if err != nil {
		return nil, err
	}
	src := res.Topo.AS(a).Routers[0]
	dst := res.Topo.AS(b).Routers[0]
	p := n.Traceroute(src, dst)
	var mid []topology.RouterID
	for _, h := range p.Hops {
		if h.AS != a && h.AS != b {
			mid = append(mid, h.Router)
		}
	}
	return mid, nil
}

// NewEnv converges the network for a sensor set and takes the pre-failure
// measurements. Optional netsim options (e.g. netsim.WithParallelism)
// configure the environment's network; a shared SPF cache is always
// installed (a later netsim.WithSPFCache replaces it) so the fault trials
// reuse unchanged per-AS routing tables.
func NewEnv(topo *topology.Topology, sensors []topology.RouterID, netOpts ...netsim.Option) (*Env, error) {
	seen := map[topology.ASN]bool{}
	var origins []topology.ASN
	for _, s := range sensors {
		if as := topo.RouterAS(s); !seen[as] {
			seen[as] = true
			origins = append(origins, as)
		}
	}
	opts := append([]netsim.Option{netsim.WithSPFCache(igp.NewCache())}, netOpts...)
	net, err := netsim.New(topo, origins, opts...)
	if err != nil {
		return nil, err
	}
	mesh := net.Mesh(sensors)
	if mesh.AnyFailed() {
		return nil, errors.New("experiment: pre-failure mesh has unreachable pairs")
	}
	table, err := ip2as.FromTopology(topo)
	if err != nil {
		return nil, err
	}
	return wrapEnv(net, sensors, mesh, table), nil
}

// wrapEnv builds the Env of an already-converged network from its
// measured healthy mesh and IP-to-AS table, without converging or probing
// again. It adapts the mesh through the table once, for every
// MeasurementsAfter to share.
func wrapEnv(net *netsim.Network, sensors []topology.RouterID, mesh *probe.Mesh, table *ip2as.Table) *Env {
	topo := net.Topology()
	env := &Env{
		Topo:       topo,
		Net:        net,
		Sensors:    sensors,
		SensorASes: make([]topology.ASN, len(sensors)),
		Prefixes:   make([]bgp.Prefix, len(sensors)),
		BeforeMesh: mesh,
		BeforeBGP:  net.BGP(),
		E:          ProbedLinks(topo, mesh),
		IP2AS:      table,
	}
	for i, s := range sensors {
		env.SensorASes[i] = topo.RouterAS(s)
		env.Prefixes[i] = bgp.PrefixFor(env.SensorASes[i])
	}
	env.adaptBefore()
	seen := map[topology.LinkID]bool{}
	for _, l := range env.E {
		ra, okA := topo.RouterByAddr(string(l.From))
		rb, okB := topo.RouterByAddr(string(l.To))
		if !okA || !okB {
			continue
		}
		if pl, ok := topo.LinkBetween(ra.ID, rb.ID); ok && !seen[pl.ID] {
			seen[pl.ID] = true
			env.PhysProbed = append(env.PhysProbed, pl.ID)
		}
	}
	sort.Slice(env.PhysProbed, func(i, j int) bool { return env.PhysProbed[i] < env.PhysProbed[j] })
	return env
}

// RoutingInfo is troubleshooter asx's control-plane view of fork, a
// faulted and reconverged Fork of e.Net: its IGP link-down events and the
// BGP withdrawals it saw for the sensor prefixes (§3.3).
func (e *Env) RoutingInfo(fork *netsim.Network, asx topology.ASN) *core.RoutingInfo {
	return &core.RoutingInfo{
		ASX:          asx,
		IGPDownLinks: AdaptIGPDowns(fork, asx),
		Withdrawals: AdaptWithdrawals(e.Topo,
			fork.ObserveWithdrawals(e.BeforeBGP, asx), e.SensorASes),
	}
}

// LookingGlass is the Looking Glass oracle ND-LG queries for fork (§3.4):
// the post-failure AS paths, falling back to the healthy ones. avail
// limits the ASes that run one (nil = all).
func (e *Env) LookingGlass(fork *netsim.Network, asx topology.ASN, avail map[topology.ASN]bool) core.LookingGlass {
	return lookingglass.New(fork.BGP(), e.BeforeBGP, avail, asx, e.Prefixes)
}

// Measurements returns the healthy-network measurements (the pre-failure
// mesh serving as both T- and T+), used for diagnosability computation.
func (e *Env) Measurements() *core.Measurements {
	return ToMeasurements(e.BeforeMesh, e.BeforeMesh)
}

// Fault is one injected failure scenario.
type Fault struct {
	Links   []topology.LinkID
	Routers []topology.RouterID
	Filters []bgp.ExportFilter
}

// GroundTruth computes the directed failed links (restricted to the probed
// universe E) and the failed ASes for a fault.
func (e *Env) GroundTruth(f Fault) (links []core.Link, ases []topology.ASN) {
	topo := e.Topo
	inE := map[core.Link]bool{}
	for _, l := range e.E {
		inE[l] = true
	}
	asSet := map[topology.ASN]bool{}
	addLink := func(a, b topology.RouterID) {
		hit := false
		if l := directedLink(topo, a, b); inE[l] {
			links = append(links, l)
			hit = true
		}
		if l := directedLink(topo, b, a); inE[l] {
			links = append(links, l)
			hit = true
		}
		if hit {
			asSet[topo.RouterAS(a)] = true
			asSet[topo.RouterAS(b)] = true
		}
	}
	for _, id := range f.Links {
		pl := topo.Link(id)
		addLink(pl.A, pl.B)
	}
	for _, r := range f.Routers {
		for _, id := range topo.Router(r).Links {
			pl := topo.Link(id)
			addLink(pl.A, pl.B)
		}
		asSet[topo.RouterAS(r)] = true
	}
	filterLinks := map[core.Link]bool{}
	for _, flt := range f.Filters {
		// The broken traffic direction is peer -> misconfigured router.
		if l := directedLink(topo, flt.Peer, flt.Router); inE[l] && !filterLinks[l] {
			filterLinks[l] = true
			links = append(links, l)
		}
		asSet[topo.RouterAS(flt.Router)] = true
	}
	for a := range asSet {
		ases = append(ases, a)
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
	return links, ases
}

// TrialData is everything one fault trial produces for the algorithms.
type TrialData struct {
	Meas        *core.Measurements
	Routing     *core.RoutingInfo
	LG          core.LookingGlass
	FailedLinks []core.Link
	FailedASes  []topology.ASN
	CoveredASes []topology.ASN
	AfterMesh   *probe.Mesh
}

// ErrNoImpact reports a fault that broke no sensor pair; the
// troubleshooter would never be invoked (§4).
var ErrNoImpact = errors.New("experiment: fault caused no unreachability")

// RunTrial injects a fault into a private fork of the healthy network,
// gathers the post-failure measurements and control-plane observations for
// troubleshooter asx, and discards the fork — the Env's own network stays
// untouched and healthy, which makes concurrent RunTrial calls on one Env
// safe. blocked masks traceroute hops; lgAvail limits Looking Glasses
// (nil = all ASes have one).
func (e *Env) RunTrial(f Fault, asx topology.ASN, blocked map[topology.ASN]bool, lgAvail map[topology.ASN]bool) (*TrialData, error) {
	net := e.Net.Fork()
	for _, id := range f.Links {
		net.FailLink(id)
	}
	for _, r := range f.Routers {
		net.FailRouter(r)
	}
	for _, flt := range f.Filters {
		net.AddExportFilter(flt)
	}
	if err := net.Reconverge(); err != nil {
		return nil, err
	}
	afterMesh := net.Mesh(e.Sensors)
	if !afterMesh.AnyFailed() {
		return nil, ErrNoImpact
	}
	td := &TrialData{AfterMesh: afterMesh}
	if len(blocked) > 0 {
		td.Meas = ToMeasurementsMapped(e.BeforeMesh.Mask(blocked), afterMesh.Mask(blocked), e.IP2AS.Lookup)
	} else {
		td.Meas = e.MeasurementsAfter(afterMesh)
	}
	td.Routing = e.RoutingInfo(net, asx)
	td.LG = e.LookingGlass(net, asx, lgAvail)
	td.FailedLinks, td.FailedASes = e.GroundTruth(f)
	for as := range e.BeforeMesh.CoveredASes() {
		td.CoveredASes = append(td.CoveredASes, as)
	}
	sort.Slice(td.CoveredASes, func(i, j int) bool { return td.CoveredASes[i] < td.CoveredASes[j] })
	return td, nil
}

// SampleLinkFault draws x distinct probed physical links.
func (e *Env) SampleLinkFault(rng *rand.Rand, x int) (Fault, bool) {
	if x > len(e.PhysProbed) {
		return Fault{}, false
	}
	perm := rng.Perm(len(e.PhysProbed))
	f := Fault{}
	for i := 0; i < x; i++ {
		f.Links = append(f.Links, e.PhysProbed[perm[i]])
	}
	return f, true
}

// SampleRouterFault draws a non-sensor router that appears as an
// intermediate hop on some probed path.
func (e *Env) SampleRouterFault(rng *rand.Rand) (Fault, bool) {
	sensorSet := map[topology.RouterID]bool{}
	for _, s := range e.Sensors {
		sensorSet[s] = true
	}
	candSet := map[topology.RouterID]bool{}
	for i := range e.BeforeMesh.Paths {
		for _, p := range e.BeforeMesh.Paths[i] {
			if p == nil {
				continue
			}
			for _, h := range p.Hops {
				if !sensorSet[h.Router] {
					candSet[h.Router] = true
				}
			}
		}
	}
	if len(candSet) == 0 {
		return Fault{}, false
	}
	cands := make([]topology.RouterID, 0, len(candSet))
	for r := range candSet {
		cands = append(cands, r)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	return Fault{Routers: []topology.RouterID{cands[rng.Intn(len(cands))]}}, true
}

// SampleMisconfig draws a BGP export-filter misconfiguration on a probed
// interdomain link (§4): the target router stops announcing, to the peer
// at the other end, the routes it forwards via one of its out-neighbor
// ASes. The per-out-neighbor grouping reflects the paper's observation
// that BGP policies are set on a per-neighbor basis (§3.1) — and it is the
// granularity ND-edge's logical links can localize.
func (e *Env) SampleMisconfig(rng *rand.Rand) (Fault, bool) {
	return e.sampleMisconfig(rng, false)
}

// SampleMisconfigSinglePrefix filters exactly one in-use prefix — the
// finer-grained misconfiguration that only per-prefix logical links can
// localize, used by the scalability study.
func (e *Env) SampleMisconfigSinglePrefix(rng *rand.Rand) (Fault, bool) {
	return e.sampleMisconfig(rng, true)
}

func (e *Env) sampleMisconfig(rng *rand.Rand, singlePrefix bool) (Fault, bool) {
	topo := e.Topo
	var inter []topology.LinkID
	for _, id := range e.PhysProbed {
		if topo.Link(id).Kind == topology.Inter {
			inter = append(inter, id)
		}
	}
	if len(inter) == 0 {
		return Fault{}, false
	}
	// Prefer links whose traffic splits across at least two out-neighbor
	// groups: filtering one group then leaves the other flowing, producing
	// the paper's "partial" link failure that plain tomography cannot see.
	for _, requireSplit := range []bool{true, false} {
		for _, idx := range rng.Perm(len(inter)) {
			pl := topo.Link(inter[idx])
			orients := [][2]topology.RouterID{{pl.A, pl.B}, {pl.B, pl.A}}
			if rng.Intn(2) == 1 {
				orients[0], orients[1] = orients[1], orients[0]
			}
			for _, o := range orients {
				target, peer := o[0], o[1]
				groups := e.misconfigGroups(target, peer)
				if len(groups) == 0 || (requireSplit && len(groups) < 2) {
					continue
				}
				keys := make([]topology.ASN, 0, len(groups))
				for k := range groups {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				chosen := groups[keys[rng.Intn(len(keys))]]
				if singlePrefix {
					chosen = chosen[rng.Intn(len(chosen)):][:1]
				}
				f := Fault{}
				for _, p := range chosen {
					f.Filters = append(f.Filters, bgp.ExportFilter{
						Router: target, Peer: peer, Prefix: p,
					})
				}
				return f, true
			}
		}
	}
	return Fault{}, false
}

// misconfigGroups returns the prefixes the peer routes through the target,
// grouped by the target's out-neighbor AS for the prefix (the first AS of
// its best route's AS path; its own AS for locally originated prefixes).
func (e *Env) misconfigGroups(target, peer topology.RouterID) map[topology.ASN][]bgp.Prefix {
	topo := e.Topo
	groups := map[topology.ASN][]bgp.Prefix{}
	for _, p := range e.BeforeBGP.Prefixes() {
		rt, ok := e.BeforeBGP.Best(peer, p)
		if !ok || rt.Local || rt.Egress != peer || rt.PeerRouter != target {
			continue
		}
		out := topo.RouterAS(target)
		if trt, ok := e.BeforeBGP.Best(target, p); ok && len(trt.ASPath) > 0 {
			out = trt.ASPath[0]
		}
		groups[out] = append(groups[out], p)
	}
	return groups
}
