// Package igp implements the intradomain routing substrate: a link-state
// IGP (IS-IS-like) computing shortest paths per AS with Dijkstra over the
// currently-up intra-AS links. It also surfaces the "link down" events the
// ND-bgpigp algorithm of the paper consumes from AS-X's own network.
package igp

import (
	"math"
	"sort"

	"netdiag/internal/pool"
	"netdiag/internal/topology"
)

// Infinity is the distance reported between IGP-disconnected routers.
const Infinity = math.MaxInt32

// LinkDown is the IGP event a troubleshooter observes for a failed
// intra-AS link in its own network (paper §3.3).
type LinkDown struct {
	AS   topology.ASN
	Link topology.LinkID
}

// State holds the IGP routing state of every AS, computed from the set of
// currently-up links at construction time. Next hops are derived from the
// all-pairs (within-AS) distances: router r forwards towards dst via its
// lowest-ID neighbor nb satisfying dist(r,dst) = cost(r,nb) + dist(nb,dst).
// Because link costs are positive, hop-by-hop forwarding under this rule is
// loop-free and deterministic.
type State struct {
	topo *topology.Topology
	isUp func(topology.LinkID) bool
	// dist is indexed by source RouterID (IDs are dense), one per-source
	// distance row per router, itself indexed by destination RouterID with
	// Infinity marking "no entry" (different AS or IGP-unreachable). Dense
	// rows keep the BGP decision process's Dist reads at two slice
	// indexings and let Rebuild clone the whole state with a memmove
	// before overwriting the dirty ASes' rows. Rows are read-only once
	// published: a Rebuild shares every clean AS's rows with its prev by
	// pointer.
	dist [][]int32
}

// New computes IGP state for all ASes: a Rebuild from an empty table with
// every AS dirty. isUp reports whether a physical link is currently up;
// the function is retained for next-hop derivation and must keep
// answering consistently until the State is discarded. Per-AS SPF fans
// out over at most `workers` goroutines; the result is identical at any
// parallelism level.
func New(topo *topology.Topology, isUp func(topology.LinkID) bool, workers int) *State {
	return Rebuild(&State{topo: topo}, isUp, topo.ASNumbers(), workers)
}

// Rebuild computes IGP state for a changed fault set by perturbing a
// previous State: every AS outside dirty shares prev's rows by pointer
// (its intra-domain failure state is unchanged, so its rows are
// bit-identical), and only the dirty ASes run SPF, over at most `workers`
// goroutines. isUp must describe the NEW fault state; the dirty list must
// name every AS whose intra-AS link liveness (including links silenced by
// router failures) differs from what prev was computed with. The result
// is identical to New over isUp.
func Rebuild(prev *State, isUp func(topology.LinkID) bool, dirty []topology.ASN, workers int) *State {
	s := &State{
		topo: prev.topo,
		isUp: isUp,
		dist: make([][]int32, prev.topo.NumRouters()),
	}
	copy(s.dist, prev.dist)
	// Each dirty AS writes only its own routers' slots of s.dist, so the
	// fan-out needs no merge step.
	_ = pool.ForEach(nil, workers, len(dirty), func(i int) error {
		s.spfAS(dirty[i])
		return nil
	})
	return s
}

// TablesEqual reports whether two States hold identical all-pairs distance
// tables — the equivalence the incremental reconvergence tests assert
// between a Rebuild and a cold recompute.
func (s *State) TablesEqual(o *State) bool {
	if len(s.dist) != len(o.dist) {
		return false
	}
	for src, d := range s.dist {
		od := o.dist[src]
		if len(d) != len(od) {
			return false
		}
		for dst, v := range d {
			if od[dst] != v {
				return false
			}
		}
	}
	return true
}

// spfAS runs SPF from every router of asn, writing the rows into s.dist
// from one allocation and reusing one heap across the sources. The AS's up
// intra links are read once, into the adjacency every source walks.
func (s *State) spfAS(asn topology.ASN) {
	routers := s.topo.AS(asn).Routers
	n := s.topo.NumRouters()
	rows := make([]int32, len(routers)*n)
	// The first source's row is free until its SPF, so it serves as the
	// adjacency's index scratch.
	g := s.adjacency(asn, routers, rows[:n])
	q := make([]item, 0, len(routers))
	for i, src := range routers {
		row := rows[i*n : (i+1)*n : (i+1)*n]
		q = spf(int32(i), routers, g, row, q)
		s.dist[src] = row
	}
}

// arc is one direction of an up intra link in an AS's adjacency: the
// neighbour's index in the AS's router list, the link's cost and the
// index of the next arc leaving the same router (-1 ends the list).
type arc struct {
	to, cost, next int32
}

// adjacency lists asn's up intra links as a forward star in one
// allocation: g[i].next heads the arc list of routers[i] for i <
// len(routers), and every later entry is one direction of an up link.
// Each link's liveness is read once. at is scratch of NumRouters entries,
// overwritten with each router's index in routers.
func (s *State) adjacency(asn topology.ASN, routers []topology.RouterID, at []int32) []arc {
	links := s.topo.IntraLinks(asn)
	g := make([]arc, len(routers), len(routers)+2*len(links))
	for i, r := range routers {
		at[r] = int32(i)
		g[i].next = -1
	}
	for _, l := range links {
		if !s.isUp(l.ID) {
			continue
		}
		a, b, c := at[l.A], at[l.B], int32(l.Cost)
		g = append(g, arc{to: b, cost: c, next: g[a].next})
		g[a].next = int32(len(g) - 1)
		g = append(g, arc{to: a, cost: c, next: g[b].next})
		g[b].next = int32(len(g) - 1)
	}
	return g
}

// item is a Dijkstra frontier entry: a router's index in its AS's router
// list and its tentative distance.
type item struct {
	at   int32
	dist int32
}

// spf fills row with the single-source shortest path distances from
// routers[src] over the AS adjacency g, for all router IDs (Infinity
// outside the AS or when disconnected). q is heap scratch, returned for
// reuse; its contents on entry are ignored. A popped entry longer than its
// router's row value is stale and skipped, so no visited set is needed.
//
//ndlint:hotpath
func spf(src int32, routers []topology.RouterID, g []arc, row []int32, q []item) []item {
	for i := range row {
		row[i] = Infinity
	}
	row[routers[src]] = 0
	q = push(q[:0], item{at: src})
	for len(q) > 0 {
		var cur item
		cur, q = pop(q)
		if cur.dist > row[routers[cur.at]] {
			continue
		}
		for a := g[cur.at].next; a >= 0; a = g[a].next {
			e := g[a]
			if nd := cur.dist + e.cost; nd < row[routers[e.to]] {
				row[routers[e.to]] = nd
				q = push(q, item{at: e.to, dist: nd})
			}
		}
	}
	return q
}

// push adds it to the binary min-heap q, ordered by dist.
func push(q []item, it item) []item {
	q = append(q, it)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].dist <= q[i].dist {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	return q
}

// pop removes and returns the minimum of the binary min-heap q.
func pop(q []item) (item, []item) {
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= last {
			break
		}
		if r := m + 1; r < last && q[r].dist < q[m].dist {
			m = r
		}
		if q[i].dist <= q[m].dist {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top, q
}

// Dist returns the IGP distance from src to dst (same AS), or Infinity if
// dst is unreachable within the AS.
func (s *State) Dist(src, dst topology.RouterID) int {
	if src == dst {
		return 0
	}
	row := s.dist[src]
	if row == nil {
		return Infinity
	}
	return int(row[dst])
}

// NextHop returns the next router on a shortest path from src to dst (both
// in the same AS), breaking equal-cost ties by the lowest neighbor router
// ID. ok is false if dst is IGP-unreachable from src.
func (s *State) NextHop(src, dst topology.RouterID) (topology.RouterID, bool) {
	if src == dst {
		return dst, true
	}
	total := s.Dist(src, dst)
	if total == Infinity {
		return 0, false
	}
	topo := s.topo
	asn := topo.RouterAS(src)
	best := topology.RouterID(-1)
	for _, lid := range topo.Router(src).Links {
		l := topo.Link(lid)
		if l.Kind != topology.Intra || !s.isUp(lid) {
			continue
		}
		nb := l.Other(src)
		if topo.RouterAS(nb) != asn {
			continue
		}
		if l.Cost+s.Dist(nb, dst) == total && (best < 0 || nb < best) {
			best = nb
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// NextHops returns every neighbor of src lying on some shortest path to
// dst (the ECMP next-hop set), sorted by router ID. It returns nil when
// dst is unreachable. NextHop always returns the first element.
func (s *State) NextHops(src, dst topology.RouterID) []topology.RouterID {
	if src == dst {
		return []topology.RouterID{dst}
	}
	total := s.Dist(src, dst)
	if total == Infinity {
		return nil
	}
	topo := s.topo
	asn := topo.RouterAS(src)
	var out []topology.RouterID
	for _, lid := range topo.Router(src).Links {
		l := topo.Link(lid)
		if l.Kind != topology.Intra || !s.isUp(lid) {
			continue
		}
		nb := l.Other(src)
		if topo.RouterAS(nb) != asn {
			continue
		}
		if l.Cost+s.Dist(nb, dst) == total {
			out = append(out, nb)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reachable reports whether src can reach dst within their AS.
func (s *State) Reachable(src, dst topology.RouterID) bool {
	return s.Dist(src, dst) < Infinity
}
