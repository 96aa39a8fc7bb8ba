// Package igp implements the intradomain routing substrate: a link-state
// IGP (IS-IS-like) computing shortest paths per AS with Dijkstra over the
// currently-up intra-AS links. It also surfaces the "link down" events the
// ND-bgpigp algorithm of the paper consumes from AS-X's own network.
package igp

import (
	"container/heap"
	"math"
	"sort"
	"strconv"
	"sync"

	"netdiag/internal/pool"
	"netdiag/internal/telemetry"
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
	// published — Rebuild and the SPF cache share them by pointer.
	dist [][]int32
}

// New computes IGP state for all ASes. isUp reports whether a physical
// link is currently up; the function is retained for next-hop derivation
// and must keep answering consistently until the State is discarded.
func New(topo *topology.Topology, isUp func(topology.LinkID) bool) *State {
	return NewCached(topo, isUp, nil, 1)
}

// Cache memoizes per-AS SPF results across IGP recomputations, keyed by
// (AS, set of failed intra-AS links). Experiment loops converge thousands
// of fault scenarios on one topology, and any given fault touches at most
// a couple of ASes — every other AS's intra-domain routing is bit-identical
// to the healthy network's, so its SPF tables are reused instead of
// recomputed. A Cache is safe for concurrent use and returns shared,
// read-only distance maps.
type Cache struct {
	mu      sync.Mutex
	entries map[string]map[topology.RouterID][]int32

	// Telemetry handles; nil (no-op) unless Instrument was called.
	hits, misses *telemetry.Counter
	size         *telemetry.Gauge
}

// NewCache returns an empty SPF cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]map[topology.RouterID][]int32{}}
}

// Instrument attaches cache telemetry to a registry: the counters
// "igp.spf_cache_hits"/"igp.spf_cache_misses", the entry-count gauge
// "igp.spf_cache_entries", and the derived "igp.spf_cache_hit_ratio".
// Call before the cache is shared across goroutines; a nil registry is a
// no-op. Returns the cache for chaining.
func (c *Cache) Instrument(r *telemetry.Registry) *Cache {
	if r == nil {
		return c
	}
	c.hits = r.Counter("igp.spf_cache_hits")
	c.misses = r.Counter("igp.spf_cache_misses")
	c.size = r.Gauge("igp.spf_cache_entries")
	r.Derive("igp.spf_cache_hit_ratio", func(s telemetry.Snapshot) float64 {
		return telemetry.Ratio(s.Counters["igp.spf_cache_hits"], s.Counters["igp.spf_cache_misses"])
	})
	return c
}

// Len reports the number of cached (AS, failed-link-set) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// key canonically names one AS's intra-domain failure state. This runs on
// every (AS, reconvergence) pair, so it avoids fmt.
//
//ndlint:hotpath
func cacheKey(asn topology.ASN, failed []topology.LinkID) string {
	b := make([]byte, 0, 16+8*len(failed))
	b = strconv.AppendInt(b, int64(asn), 10)
	b = append(b, '|')
	for i, l := range failed {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return string(b)
}

// NewCached computes IGP state for all ASes, reusing cached per-AS SPF
// tables where the AS's failed intra-link set matches a previous
// computation. A nil cache disables reuse. Per-AS computations fan out
// over at most `workers` goroutines; the result is identical at any
// parallelism level.
func NewCached(topo *topology.Topology, isUp func(topology.LinkID) bool, cache *Cache, workers int) *State {
	s := &State{
		topo: topo,
		isUp: isUp,
		dist: make([][]int32, topo.NumRouters()),
	}
	asns := topo.ASNumbers()
	perAS := make([]map[topology.RouterID][]int32, len(asns))
	_ = pool.ForEach(nil, workers, len(asns), func(i int) error {
		perAS[i] = s.asTables(asns[i], cache)
		return nil
	})
	for _, tables := range perAS {
		for src, d := range tables {
			s.dist[src] = d
		}
	}
	return s
}

// Rebuild computes IGP state for a changed fault set by perturbing a
// previous State: every AS outside dirty shares prev's per-AS tables by
// pointer (its intra-domain failure set is unchanged, so its tables are
// bit-identical), and only the dirty ASes run SPF — through the cache when
// one is attached, so even a dirty AS whose failure set was seen before is
// a lookup, not a recompute. isUp must describe the NEW fault state; the
// dirty list must name every AS whose intra-AS link liveness (including
// links silenced by router failures) differs from what prev was computed
// with. The result is identical to a fresh NewCached over isUp.
func Rebuild(prev *State, isUp func(topology.LinkID) bool, dirty []topology.ASN, cache *Cache, workers int) *State {
	topo := prev.topo
	s := &State{
		topo: topo,
		isUp: isUp,
		// The copy shares every per-source row by pointer (read-only
		// after construction); dirty-AS routers are overwritten below, so
		// clean ones keep prev's rows — bit-identical, never recomputed.
		dist: make([][]int32, len(prev.dist)),
	}
	copy(s.dist, prev.dist)
	if len(dirty) == 1 || workers <= 1 {
		// Single-AS deltas (the common incremental case) skip the fan-out
		// machinery entirely.
		for _, asn := range dirty {
			for src, d := range s.asTables(asn, cache) {
				s.dist[src] = d
			}
		}
		return s
	}
	perAS := make([]map[topology.RouterID][]int32, len(dirty))
	_ = pool.ForEach(nil, workers, len(dirty), func(i int) error {
		perAS[i] = s.asTables(dirty[i], cache)
		return nil
	})
	for _, tables := range perAS {
		for src, d := range tables {
			s.dist[src] = d
		}
	}
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

// asTables returns the per-source SPF tables of one AS, from the cache
// when possible.
func (s *State) asTables(asn topology.ASN, cache *Cache) map[topology.RouterID][]int32 {
	var key string
	if cache != nil {
		var failed []topology.LinkID
		for _, l := range s.topo.IntraLinks(asn) {
			if !s.isUp(l.ID) {
				failed = append(failed, l.ID)
			}
		}
		// Insertion sort: failed sets are tiny (0–2 links), and sort.Slice
		// would force the slice to the heap on every reconvergence.
		for i := 1; i < len(failed); i++ {
			for j := i; j > 0 && failed[j] < failed[j-1]; j-- {
				failed[j], failed[j-1] = failed[j-1], failed[j]
			}
		}
		key = cacheKey(asn, failed)
		cache.mu.Lock()
		hit, ok := cache.entries[key]
		cache.mu.Unlock()
		if ok {
			cache.hits.Inc()
			return hit
		}
		cache.misses.Inc()
	}
	routers := s.topo.AS(asn).Routers
	tables := make(map[topology.RouterID][]int32, len(routers))
	// Dijkstra only ever settles routers inside asn, so clearing just
	// those positions resets the scratch for the next source.
	visited := make([]bool, s.topo.NumRouters())
	for _, src := range routers {
		tables[src] = s.runSPF(src, visited)
		for _, r := range routers {
			visited[r] = false
		}
	}
	if cache != nil {
		cache.mu.Lock()
		cache.entries[key] = tables
		cache.size.Set(int64(len(cache.entries)))
		cache.mu.Unlock()
	}
	return tables
}

// item is a priority-queue entry for Dijkstra.
type item struct {
	router topology.RouterID
	dist   int
}

type pq []item

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(item)) }
func (q *pq) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// runSPF computes single-source shortest path distances within src's AS as
// a dense row over all router IDs (Infinity outside the AS or when
// disconnected). visited is caller-owned scratch, all-false on entry.
func (s *State) runSPF(src topology.RouterID, visited []bool) []int32 {
	topo := s.topo
	asn := topo.RouterAS(src)
	row := make([]int32, topo.NumRouters())
	for i := range row {
		row[i] = Infinity
	}
	row[src] = 0

	q := &pq{{router: src, dist: 0}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(item)
		if visited[cur.router] {
			continue
		}
		visited[cur.router] = true
		for _, lid := range topo.Router(cur.router).Links {
			l := topo.Link(lid)
			if l.Kind != topology.Intra || !s.isUp(lid) {
				continue
			}
			nb := l.Other(cur.router)
			if topo.RouterAS(nb) != asn {
				continue
			}
			nd := cur.dist + l.Cost
			if int32(nd) < row[nb] {
				row[nb] = int32(nd)
				heap.Push(q, item{router: nb, dist: nd})
			}
		}
	}
	return row
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
