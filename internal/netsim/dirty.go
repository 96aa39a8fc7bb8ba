// Pair-level dirty scoping: ReconvergeDirtyCtx reconverges like
// ReconvergeCtx but additionally reports *what* the delta could have
// touched — the failed links and routers, the rebuilt ASes, and the
// prefixes whose converged BGP routes actually changed — so a
// measurement layer holding per-pair traceroutes can re-probe only the
// pairs the routing event could have moved. This is the streaming
// plane's analogue of the per-prefix pruning the incremental BGP
// warm-start does (see warm.go in internal/bgp).
package netsim

import (
	"context"

	"netdiag/internal/bgp"
	"netdiag/internal/probe"
	"netdiag/internal/topology"
)

// DirtyScope describes the reach of one reconvergence delta. The contract
// is one-sided: a pair whose last observed path AffectsPath rejects
// provably kept its forwarding state, so skipping its re-probe is
// lossless. The scope itself is conservative — a listed prefix or link
// may leave some paths through it untouched.
type DirtyScope struct {
	// ForceAll marks deltas whose reach cannot be bounded: restorations
	// (links/routers back up, filters removed). Every pair is then dirty.
	ForceAll bool
	// Links are the physical links that went down in this delta, as
	// (router, router) endpoint pairs in ascending LinkID order.
	Links [][2]topology.RouterID
	// Routers are the routers that went down in this delta, ascending.
	Routers []topology.RouterID
	// ASes are the ASes whose intra-domain IGP tables were rebuilt,
	// ascending. AffectsPath does not need them (the link/router and
	// prefix checks are sharper); they are reported for telemetry and
	// the streaming bench section.
	ASes []topology.ASN
	// Prefixes are the prefixes whose converged BGP routes changed
	// (bgp.State.ChangedPrefixes against the pre-delta state), sorted.
	// Empty when ForceAll.
	Prefixes []bgp.Prefix

	linkSet   map[[2]topology.RouterID]bool
	routerSet map[topology.RouterID]bool
	prefixSet map[bgp.Prefix]bool
}

// Empty reports whether the delta provably touched nothing: nothing
// failed, no prefix's routes changed, nothing forced. An Empty scope
// means zero pairs need re-probing.
func (d *DirtyScope) Empty() bool {
	return !d.ForceAll && len(d.Links) == 0 && len(d.Routers) == 0 && len(d.Prefixes) == 0
}

// AffectsPath reports whether the delta could have changed the
// forwarding of a pair whose last observed path is p and whose
// destination announces dstPrefix. The pair is dirty iff the
// destination prefix's BGP routes changed, or the old path crosses a
// failed link or router. Soundness of skipping everything else is
// inductive along the old path: with dstPrefix's routes unchanged, every
// hop resolves the same egress, and inside each AS the old IGP segment
// stays both available (no failed link/router on it) and optimal — a
// pure-degradation delta only removes competing candidates, and the
// deterministic tie-break keeps a surviving winner. Restorations, which
// could create strictly better candidates anywhere, set ForceAll.
// Unknown inputs stay conservative: a nil path marks the pair dirty.
func (d *DirtyScope) AffectsPath(p *probe.Path, dstPrefix bgp.Prefix) bool {
	if d.ForceAll || p == nil {
		return true
	}
	if d.prefixSet[dstPrefix] {
		return true
	}
	for i := range p.Hops {
		if d.routerSet[p.Hops[i].Router] {
			return true
		}
		if i+1 < len(p.Hops) && d.linkSet[[2]topology.RouterID{p.Hops[i].Router, p.Hops[i+1].Router}] {
			return true
		}
	}
	return false
}

// seal builds the lookup sets once the slices are final. Links are
// indexed in both orientations so AffectsPath can walk directed hops.
func (d *DirtyScope) seal() *DirtyScope {
	d.linkSet = make(map[[2]topology.RouterID]bool, 2*len(d.Links))
	for _, l := range d.Links {
		d.linkSet[l] = true
		d.linkSet[[2]topology.RouterID{l[1], l[0]}] = true
	}
	d.routerSet = make(map[topology.RouterID]bool, len(d.Routers))
	for _, r := range d.Routers {
		d.routerSet[r] = true
	}
	d.prefixSet = make(map[bgp.Prefix]bool, len(d.Prefixes))
	for _, p := range d.Prefixes {
		d.prefixSet[p] = true
	}
	return d
}

// ReconvergeDirtyCtx reconverges exactly like ReconvergeCtx — the
// converged state is identical — and reports the scope of the delta it
// applied against the last converged base (New converges the first one).
// A network with pending restorations reports ForceAll; a no-op delta
// (mutators called but nothing actually changed against the base)
// reports an Empty scope.
func (n *Network) ReconvergeDirtyCtx(ctx context.Context) (*DirtyScope, error) {
	d := n.computeDelta()
	scope := &DirtyScope{ForceAll: d.forceAll}
	if !d.forceAll {
		// Diff the fault arrays against the pre-delta base before the
		// reconvergence replaces it. Only downs appear here: any
		// restoration sets forceAll in the delta.
		for i := range n.linkUp {
			if d.base.linkUp[i] && !n.linkUp[i] {
				l := n.topo.Link(topology.LinkID(i))
				scope.Links = append(scope.Links, [2]topology.RouterID{l.A, l.B})
			}
		}
		scope.Routers = d.failedRouters
		scope.ASes = d.dirtyASes
	}
	if err := n.reconvergeCtx(ctx, d); err != nil {
		return nil, err
	}
	if !d.forceAll {
		scope.Prefixes = n.bgp.ChangedPrefixes(d.base.bgp)
	}
	return scope.seal(), nil
}
