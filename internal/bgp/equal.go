package bgp

import (
	"fmt"
	"sort"

	"netdiag/internal/topology"
)

// DiffRoutes returns up to max human-readable differences between two
// converged states (route-level, deterministic order): the prefix sets,
// the best route at every router, and the Adj-RIB-In content on every
// eBGP session either state knows about. An empty result means the
// states are route-for-route identical, the equivalence the incremental
// reconvergence tests assert between warm and cold computes.
func (s *State) DiffRoutes(o *State, max int) []string {
	var out []string
	add := func(format string, args ...any) bool {
		out = append(out, fmt.Sprintf(format, args...))
		return len(out) >= max
	}
	if len(s.prefixes) != len(o.prefixes) {
		add("prefix count %d vs %d", len(s.prefixes), len(o.prefixes))
		return out
	}
	for i, p := range s.prefixes {
		if o.prefixes[i] != p {
			if add("prefix[%d] %s vs %s", i, p, o.prefixes[i]) {
				return out
			}
		}
	}
	for _, p := range s.prefixes {
		sp, op := s.per[p], o.per[p]
		if sp == nil || op == nil {
			if sp != op {
				if add("%s: missing prefix state (%v vs %v)", p, sp != nil, op != nil) {
					return out
				}
			}
			continue
		}
		for r := range sp.best {
			if !sp.best[r].equal(op.best[r]) {
				if add("%s: best[%d] %s vs %s", p, r, routeStr(sp.best[r]), routeStr(op.best[r])) {
					return out
				}
			}
		}
		// Compare Adj-RIB-Ins over the union of both states' session sets;
		// shared prefixStates may be indexed by an older (superset) layout,
		// where sessions absent from the other state must hold nil.
		for _, e := range adjUnion(sp, op) {
			a, b := sp.adjAt(e.Local, e.Remote), op.adjAt(e.Local, e.Remote)
			if !a.equal(b) {
				if add("%s: adjIn[%d][%d] %s vs %s", p, e.Local, e.Remote, routeStr(a), routeStr(b)) {
					return out
				}
			}
		}
	}
	return out
}

// adjUnion returns the union of the two prefixStates' directed sessions in
// deterministic (Local, Remote) order.
func adjUnion(a, b *prefixState) []session {
	type pair struct{ l, r topology.RouterID }
	seen := map[pair]bool{}
	var out []session
	for _, e := range a.layout.flat {
		if !seen[pair{e.Local, e.Remote}] {
			seen[pair{e.Local, e.Remote}] = true
			out = append(out, e)
		}
	}
	for _, e := range b.layout.flat {
		if !seen[pair{e.Local, e.Remote}] {
			seen[pair{e.Local, e.Remote}] = true
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Local != out[j].Local {
			return out[i].Local < out[j].Local
		}
		return out[i].Remote < out[j].Remote
	})
	return out
}

// routeStr renders a route for diff output.
func routeStr(r *Route) string {
	if r == nil {
		return "<none>"
	}
	return fmt.Sprintf("{path %v pref %d egress %d peer %d local %v ibgp %v}",
		r.ASPath, r.LocalPref, r.Egress, r.PeerRouter, r.Local, r.viaIBGP)
}
