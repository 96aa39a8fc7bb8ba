// Warm-started convergence: a Delta describes how a Config degrades a
// previously converged state of the same topology, and planWarm derives
// from it, once per compute, what seed turns into each prefix's worklist:
// the routers whose decision the delta can change. A prefix with no such
// router shares the prior prefixState by pointer; any other drains from
// its prior routes, so a warm fixpoint re-decides only what the delta
// reached and what that change propagates to.
//
// Soundness rests on every delta being a pure degradation (nothing new is
// announced; planWarm computes cold otherwise) and on the Gao–Rexford
// relationship consistency the topology package enforces: the decision
// process has a unique stable state per prefix (no dispute wheel), so any
// fixpoint the seeded worklist reaches — and any prior state proven to
// still be a fixpoint — is the same state a cold compute reaches. The bgp
// oracle tests assert this route-for-route against synchronous rounds from
// empty RIBs, and the netsim differential tests against a cold compute,
// over randomized fault sets.
package bgp

import (
	"netdiag/internal/topology"
)

// Delta describes how a Config's fault set degrades the converged Prior
// state, as the netsim layer tracks it: links and routers only fail and
// filters are only added, so a restoration has no Delta. The zero delta
// (no failed routers, no dirty ASes) means "only link and filter changes,
// derivable from the configs themselves": removed sessions are found by
// diffing the session layouts and added filters by diffing the Filters.
type Delta struct {
	// Prior is the converged state the new compute is a perturbation of.
	// It must have been computed over the same Topo and the same Origins.
	Prior *State
	// FailedRouters are routers that were up when Prior converged and are
	// down now. (The prior Config's IsRouterUp closure may read live state
	// that has since changed, so the caller must pass the delta
	// explicitly.)
	FailedRouters []topology.RouterID
	// DirtyASes are the ASes whose intra-domain IGP tables changed between
	// Prior's compute and this one (failed intra-AS links, failed
	// routers). Hot-potato tie-breaks and iBGP reachability read IGP
	// distances, so prefix pruning must inspect these ASes.
	DirtyASes []topology.ASN
	// SessionsUnchanged asserts no inter-AS link or router liveness changed
	// since Prior, so the live eBGP session set is exactly Prior's. The
	// compute then shares Prior's session layout by pointer instead of
	// rebuilding it — the dominant allocation on small all-clean deltas.
	SessionsUnchanged bool
}

// warmPlan is what a warm compute derives once from its Delta.
type warmPlan struct {
	prior   *State
	removed []session      // sessions of the prior layout absent now
	added   []ExportFilter // filters the prior state lacked
	failed  []topology.RouterID
	dirty   []topology.ASN
	// remap[i] is the prior layout's slot of session i, or -1 when the
	// prior layout lacks it; nil when the layout is the prior one.
	remap []int32
}

// planWarm diffs the filters and session layouts against w.Prior. It
// returns nil, a cold compute, when it finds a removed filter or an added
// session: either can announce new routes anywhere.
func (s *State) planWarm(w *Delta) *warmPlan {
	prior := w.Prior
	added, removedFilter := filterDelta(prior.cfg.Filters, s.cfg.Filters)
	removed, addedSessions := layoutDelta(prior.layout, s.layout)
	if removedFilter || addedSessions {
		return nil
	}
	pl := &warmPlan{
		prior:   prior,
		removed: removed,
		added:   added,
		failed:  w.FailedRouters,
		dirty:   w.DirtyASes,
	}
	if prior.layout != s.layout {
		pl.remap = make([]int32, len(s.layout.flat))
		for i, e := range s.layout.flat {
			pl.remap[i] = int32(prior.layout.slot(e.Local, e.Remote))
		}
	}
	return pl
}

// seed queues on wl the routers of prefix p whose decision the delta can
// change, given old, p's prior converged state:
//   - a failed router that held a route (it must drop it; when that route
//     was eBGP-learned, the iBGP fan-out of the drain queues its AS-mates);
//   - the local end of a removed session that carried a route;
//   - a router in a dirty AS whose prior winner's egress distance changed
//     (hot-potato tie-breaks and iBGP egress reachability are the only IGP
//     inputs to the decision process; every delta is a pure
//     degradation, so distances only grow and rival candidates can only
//     get worse: the prior winner can lose its seat only if its own egress
//     distance changed);
//   - the receiving end of an added filter's session that carried p
//     (refreshSlots then drops the route).
//
// Every other router's inputs are what they were at the prior fixpoint,
// so its prior decision stands until a change the drain propagates reaches
// it. An empty worklist therefore proves the prior state is the fixpoint
// under the new configuration, hence (by uniqueness) the cold result.
func (pl *warmPlan) seed(s *State, p Prefix, old *prefixState, wl *worklist) {
	for _, r := range pl.failed {
		if old.best[r] != nil {
			wl.push(r)
		}
	}
	for _, e := range pl.removed {
		if old.adjAt(e.Local, e.Remote) != nil {
			wl.push(e.Local)
		}
	}
	for _, asn := range pl.dirty {
		for _, q := range s.cfg.Topo.AS(asn).Routers {
			if b := old.best[q]; b != nil && pl.prior.cfg.IGP.Dist(q, b.Egress) != s.cfg.IGP.Dist(q, b.Egress) {
				wl.push(q)
			}
		}
	}
	for _, f := range pl.added {
		if f.Prefix == p && old.adjAt(f.Peer, f.Router) != nil {
			wl.push(f.Peer)
		}
	}
}

// copyAdj copies old's Adj-RIB-Ins into ps, remapped onto ps's layout.
// Sessions the current layout lacks drop out; seed queued their local
// ends if they carried a route.
func (pl *warmPlan) copyAdj(ps, old *prefixState) {
	switch {
	case old.layout == ps.layout:
		copy(ps.adj, old.adj)
	case old.layout == pl.prior.layout:
		for i, j := range pl.remap {
			if j >= 0 {
				ps.adj[i] = old.adj[j]
			}
		}
	default:
		// A state shared from an older compute keeps its older layout.
		for i, e := range ps.layout.flat {
			ps.adj[i] = old.adjAt(e.Local, e.Remote)
		}
	}
}

// refreshSlots recomputes the Adj-RIB-In slots of ps the delta changed
// directly: the sessions of p's added filters. A slot that changes queues
// its receiving router.
func (pl *warmPlan) refreshSlots(s *State, p Prefix, ps *prefixState, wl *worklist) {
	for _, f := range pl.added {
		if f.Prefix != p {
			continue
		}
		if j := s.layout.slot(f.Peer, f.Router); j >= 0 {
			s.refresh(j, p, ps, wl)
		}
	}
}

// filterDelta diffs two export-filter multisets.
func filterDelta(prior, cur []ExportFilter) (added []ExportFilter, removed bool) {
	if len(prior) == 0 {
		return cur, false
	}
	if len(cur) == 0 {
		return nil, true
	}
	count := map[ExportFilter]int{}
	for _, f := range prior {
		count[f]++
	}
	for _, f := range cur {
		if count[f] > 0 {
			count[f]--
		} else {
			added = append(added, f)
		}
	}
	for _, left := range count {
		if left > 0 {
			removed = true
			break
		}
	}
	return added, removed
}

// layoutDelta diffs two session layouts: removed is every directed session
// present in prior but absent now; addedAny reports whether the new layout
// has any session prior lacked.
func layoutDelta(prior, cur *sessionLayout) (removed []session, addedAny bool) {
	if prior == cur {
		return nil, false
	}
	for _, e := range prior.flat {
		if cur.slot(e.Local, e.Remote) < 0 {
			removed = append(removed, e)
		}
	}
	// cur holds (prior ∩ cur) plus any genuinely new sessions, and
	// |prior ∩ cur| = |prior| - |removed|.
	addedAny = len(cur.flat) > len(prior.flat)-len(removed)
	return removed, addedAny
}
