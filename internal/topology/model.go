// Package topology models multi-AS router-level network topologies: ASes,
// routers, physical links, business relationships, and addressing. It is the
// substrate every other package builds on: the IGP and BGP simulators route
// over it, the probe package traces through it, and the experiment harness
// generates instances of it that match the evaluation setup of the
// NetDiagnoser paper (CoNEXT 2007).
package topology

import (
	"fmt"
	"sort"
)

// ASN identifies an autonomous system.
type ASN int

// RouterID identifies a router globally (across all ASes).
type RouterID int

// LinkID identifies a physical (undirected) link globally.
type LinkID int

// ASKind classifies an AS by its role in the hierarchy used by the paper's
// evaluation topology: three core ASes, 22 tier-2 ASes, 140 stub ASes.
type ASKind int

const (
	// Core is a backbone AS (Abilene, GEANT, WIDE in the paper).
	Core ASKind = iota
	// Tier2 is a mid-hierarchy transit AS.
	Tier2
	// Stub is an edge AS with a single router.
	Stub
)

// String returns a human-readable AS kind.
func (k ASKind) String() string {
	switch k {
	case Core:
		return "core"
	case Tier2:
		return "tier2"
	case Stub:
		return "stub"
	default:
		return fmt.Sprintf("ASKind(%d)", int(k))
	}
}

// LinkKind distinguishes links inside one AS from links between ASes.
type LinkKind int

const (
	// Intra links connect two routers of the same AS.
	Intra LinkKind = iota
	// Inter links connect border routers of two different ASes.
	Inter
)

// String returns a human-readable link kind.
func (k LinkKind) String() string {
	if k == Intra {
		return "intra"
	}
	return "inter"
}

// Rel is the business relationship of one AS towards a neighbor, following
// the Gao–Rexford model the BGP substrate implements.
type Rel int

const (
	// None means the two ASes have no relationship (no link between them).
	None Rel = iota
	// Customer means the neighbor is a customer of this AS.
	Customer
	// Peer means the neighbor is a settlement-free peer.
	Peer
	// Provider means the neighbor is a provider of this AS.
	Provider
)

// String returns a human-readable relationship name.
func (r Rel) String() string {
	switch r {
	case Customer:
		return "customer"
	case Peer:
		return "peer"
	case Provider:
		return "provider"
	default:
		return "none"
	}
}

// AS is one autonomous system and the routers it contains.
type AS struct {
	Num     ASN
	Kind    ASKind
	Name    string
	Routers []RouterID
}

// Router is a single router. Addr is its unique IP-like address, which is
// what simulated traceroutes report; the paper notes the troubleshooter
// never needs alias resolution, so one address per router is sufficient
// information (see DESIGN.md substitutions).
type Router struct {
	ID    RouterID
	AS    ASN
	Name  string
	Addr  string
	Links []LinkID // incident physical links
}

// PhysLink is an undirected physical link between two routers. Cost is the
// IGP metric used for intra-AS shortest paths (ignored on inter-AS links).
type PhysLink struct {
	ID   LinkID
	A, B RouterID
	Cost int
	Kind LinkKind
}

// Other returns the endpoint of l that is not r.
// It panics if r is not an endpoint of l.
func (l *PhysLink) Other(r RouterID) RouterID {
	switch r {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	panic(fmt.Sprintf("topology: router %d not an endpoint of link %d", r, l.ID))
}

// Has reports whether r is an endpoint of l.
func (l *PhysLink) Has(r RouterID) bool { return l.A == r || l.B == r }

type asnPair struct{ a, b ASN }

// Topology is an immutable multi-AS router-level topology. Build one with a
// Builder or one of the generators in this package.
type Topology struct {
	ases    map[ASN]*AS
	asList  []ASN // sorted
	routers []*Router
	links   []*PhysLink
	rels    map[asnPair]Rel
	byAddr  map[string]RouterID
	// intraByAS indexes links by owning AS, filled once in Build; the IGP
	// reads it on every reconvergence so it must not be a per-call scan.
	intraByAS map[ASN][]*PhysLink
}

// AS returns the AS with the given number, or nil if absent.
func (t *Topology) AS(n ASN) *AS { return t.ases[n] }

// ASNumbers returns all AS numbers in ascending order.
// The returned slice is shared; callers must not modify it.
func (t *Topology) ASNumbers() []ASN { return t.asList }

// NumRouters returns the number of routers.
func (t *Topology) NumRouters() int { return len(t.routers) }

// Router returns the router with the given ID.
func (t *Topology) Router(id RouterID) *Router { return t.routers[id] }

// RouterByAddr returns the router owning the given address.
func (t *Topology) RouterByAddr(addr string) (*Router, bool) {
	id, ok := t.byAddr[addr]
	if !ok {
		return nil, false
	}
	return t.routers[id], true
}

// NumLinks returns the number of physical links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Link returns the physical link with the given ID.
func (t *Topology) Link(id LinkID) *PhysLink { return t.links[id] }

// Links returns all physical links. The returned slice is shared; callers
// must not modify it.
func (t *Topology) Links() []*PhysLink { return t.links }

// RouterAS returns the AS number of a router.
func (t *Topology) RouterAS(id RouterID) ASN { return t.routers[id].AS }

// Rel returns the relationship of AS a towards AS b
// (Customer means b is a's customer).
func (t *Topology) Rel(a, b ASN) Rel { return t.rels[asnPair{a, b}] }

// Neighbors returns the AS numbers adjacent to a, in ascending order.
func (t *Topology) Neighbors(a ASN) []ASN {
	seen := map[ASN]bool{}
	var out []ASN
	for _, rid := range t.ases[a].Routers {
		for _, lid := range t.routers[rid].Links {
			l := t.links[lid]
			if l.Kind != Inter {
				continue
			}
			other := t.RouterAS(l.Other(rid))
			if other != a && !seen[other] {
				seen[other] = true
				out = append(out, other)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkBetween returns a physical link connecting routers a and b, if any.
func (t *Topology) LinkBetween(a, b RouterID) (*PhysLink, bool) {
	for _, lid := range t.routers[a].Links {
		l := t.links[lid]
		if l.Has(b) {
			return l, true
		}
	}
	return nil, false
}

// IntraLinks returns the intra-AS links of the given AS. The returned
// slice is shared; callers must not modify it.
func (t *Topology) IntraLinks(n ASN) []*PhysLink {
	if t.intraByAS != nil {
		return t.intraByAS[n]
	}
	var out []*PhysLink
	for _, l := range t.links {
		if l.Kind == Intra && t.RouterAS(l.A) == n {
			out = append(out, l)
		}
	}
	return out
}

// Validate checks internal consistency: every link endpoint exists, link
// kinds match endpoint ASes, relationships are symmetric and present for
// every inter-AS adjacency, and every intra-AS subgraph is connected.
func (t *Topology) Validate() error {
	for _, l := range t.links {
		if int(l.A) >= len(t.routers) || int(l.B) >= len(t.routers) {
			return fmt.Errorf("link %d has unknown endpoint", l.ID)
		}
		sameAS := t.RouterAS(l.A) == t.RouterAS(l.B)
		if sameAS != (l.Kind == Intra) {
			return fmt.Errorf("link %d kind %v inconsistent with endpoint ASes", l.ID, l.Kind)
		}
		if l.Kind == Inter {
			a, b := t.RouterAS(l.A), t.RouterAS(l.B)
			ra, rb := t.Rel(a, b), t.Rel(b, a)
			if ra == None || rb == None {
				return fmt.Errorf("inter-AS link %d between AS%d and AS%d has no relationship", l.ID, a, b)
			}
			if (ra == Customer) != (rb == Provider) || (ra == Peer) != (rb == Peer) {
				return fmt.Errorf("asymmetric relationship between AS%d (%v) and AS%d (%v)", a, ra, b, rb)
			}
		}
		if l.Cost <= 0 {
			return fmt.Errorf("link %d has non-positive cost %d", l.ID, l.Cost)
		}
	}
	// Walk the sorted AS list, not the map: with several invalid ASes the
	// reported error must not depend on map iteration order.
	for _, n := range t.asList {
		as := t.ases[n]
		if len(as.Routers) == 0 {
			return fmt.Errorf("AS%d has no routers", as.Num)
		}
		if !t.intraConnected(as) {
			return fmt.Errorf("AS%d intra-AS graph is not connected", as.Num)
		}
	}
	return nil
}

func (t *Topology) intraConnected(as *AS) bool {
	if len(as.Routers) == 1 {
		return true
	}
	seen := map[RouterID]bool{as.Routers[0]: true}
	stack := []RouterID{as.Routers[0]}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range t.routers[r].Links {
			l := t.links[lid]
			if l.Kind != Intra {
				continue
			}
			o := l.Other(r)
			if !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	return len(seen) == len(as.Routers)
}
