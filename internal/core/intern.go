package core

import (
	"fmt"
	"slices"

	"netdiag/internal/topology"
)

// nodeTable gives every node of a diagnosis run a small dense int32 ID.
// Physical nodes are interned on first sight while the measurements are
// read (Before, then After, in hop order) and take IDs [0, nPhys); the
// logical nodes of the §3.1 expansion follow. No output depends on the
// numeric ID values: every user-visible order goes through node names.
type nodeTable struct {
	ids map[Node]int32
	// names holds each node's name. A logical node's name is built on
	// first use (it stays "" until then): only the candidate scan order,
	// cluster endpoint keys and the hypothesis need it.
	names []Node
	// as is each node's AS at its last identified sighting; uh marks
	// nodes with any unidentified sighting. This is the rule the reference
	// engine's collectNodes applies.
	as []topology.ASN
	uh []bool
	// tags are the Looking-Glass AS tags of unidentified nodes (ND-LG
	// only; nil otherwise).
	tags  []asTag
	nPhys int32

	// logical lists the (u, v, tag) key of node nPhys+k; logIDs inverts it.
	logical   []logicalKey
	logIDs    map[logicalKey]int32
	perPrefix bool
	// byName resolves logical names from routing inputs; built on demand.
	byName map[Node]int32
}

// logicalKey identifies the logical node v(tag) reached from u: tag is
// the next AS, or the destination sensor in per-prefix mode.
type logicalKey struct {
	u, v int32
	tag  int
}

func newNodeTable(hint int) *nodeTable {
	return &nodeTable{ids: make(map[Node]int32, hint)}
}

// intern returns h's node ID, assigning the next one on first sight, and
// records the sighting's AS or unidentified flag.
func (t *nodeTable) intern(h Hop) int32 {
	id, ok := t.ids[h.Node]
	if !ok {
		id = t.add(h.Node, 0)
		t.ids[h.Node] = id
	}
	if h.Unidentified {
		t.uh[id] = true
	} else {
		t.as[id] = h.AS
	}
	return id
}

func (t *nodeTable) add(name Node, as topology.ASN) int32 {
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.as = append(t.as, as)
	t.uh = append(t.uh, false)
	return id
}

// logicalNode returns the ID of logical node k, assigning one on first
// sight. Its AS is v's hop AS at the last sighting, like a physical node's.
func (t *nodeTable) logicalNode(k logicalKey, as topology.ASN) int32 {
	id, ok := t.logIDs[k]
	if !ok {
		id = t.add("", as)
		t.logIDs[k] = id
		t.logical = append(t.logical, k)
	}
	t.as[id] = as
	return id
}

func (t *nodeTable) size() int { return len(t.names) }

func (t *nodeTable) isLogical(id int32) bool { return id >= t.nPhys }

// key returns the (u, v, tag) key of logical node id.
func (t *nodeTable) key(id int32) logicalKey { return t.logical[id-t.nPhys] }

// name returns node id's name, building a logical node's "v(W)@u" name
// on first use.
func (t *nodeTable) name(id int32) Node {
	n := t.names[id]
	if n == "" && t.isLogical(id) {
		k := t.key(id)
		tag := itoaASN(topology.ASN(k.tag))
		if t.perPrefix {
			tag = fmt.Sprintf("p%d", k.tag)
		}
		n = logicalNodeName(t.names[k.u], t.names[k.v], tag)
		t.names[id] = n
	}
	return n
}

// lookup resolves a node named in the routing inputs. Those name routers,
// so the physical table answers; a logical name is resolved too, by
// naming every logical node once, so matching stays exactly by name.
func (t *nodeTable) lookup(n Node) (int32, bool) {
	if id, ok := t.ids[n]; ok {
		return id, true
	}
	if !IsLogical(n) {
		return 0, false
	}
	if t.byName == nil {
		t.byName = make(map[Node]int32, len(t.logical))
		for id := t.nPhys; int(id) < t.size(); id++ {
			t.byName[t.name(id)] = id
		}
	}
	id, ok := t.byName[n]
	return id, ok
}

// physical maps a link to the physical link it annotates: u->v(W)@u and
// v(W)@u->v both map to u->v; any other link maps to itself.
func (t *nodeTable) physical(from, to int32) (int32, int32) {
	if t.isLogical(to) && t.key(to).u == from {
		return from, t.key(to).v
	}
	if t.isLogical(from) && t.key(from).v == to {
		return t.key(from).u, to
	}
	return from, to
}

// linkASes is the reference engine's linkASes over node IDs: the sorted
// ASes of the link's endpoints, or the Looking-Glass tags of unidentified
// ones.
func (t *nodeTable) linkASes(u, v int32) []topology.ASN {
	out := make([]topology.ASN, 0, 2)
	for _, n := range [2]int32{u, v} {
		if t.uh[n] {
			out = append(out, t.tag(n)...)
		} else {
			out = append(out, t.as[n])
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// endpointKey is the reference engine's makeEndpointKey over node IDs.
func (t *nodeTable) endpointKey(id int32) endpointKey {
	if !t.uh[id] {
		return endpointKey{identified: t.name(id), ok: true}
	}
	return tagKey(t.tag(id))
}

func (t *nodeTable) tag(id int32) asTag {
	if int(id) < len(t.tags) {
		return t.tags[id]
	}
	return nil
}

// linkTable gives every link of a diagnosis run a dense int32 ID keyed by
// its (from, to) node IDs, so sets of links become packed bitsets and
// per-link state becomes flat slices. IDs are assigned on first sight;
// no output depends on their values. A logical node v(W)@u has exactly
// one link in (u->v(W)@u) and one out (v(W)@u->v), so those take a slot
// of the node instead of a map entry; the map holds the other links.
type linkTable struct {
	nodes *nodeTable
	ids   map[[2]int32]int32
	// via holds, per logical node, 1 + the IDs of its in- and out-link
	// (0 until seen).
	via  [][2]int32
	ends [][2]int32
}

// newLinkTable returns an empty table over the nodes of t, which must
// hold every logical node already.
func newLinkTable(t *nodeTable) *linkTable {
	return &linkTable{
		nodes: t,
		ids:   map[[2]int32]int32{},
		via:   make([][2]int32, len(t.logical)),
	}
}

// slot returns the logical-node slot of link from->to, or nil.
func (t *linkTable) slot(from, to int32) *int32 {
	n := t.nodes
	if n.isLogical(to) && n.key(to).u == from {
		return &t.via[to-n.nPhys][0]
	}
	if n.isLogical(from) && n.key(from).v == to {
		return &t.via[from-n.nPhys][1]
	}
	return nil
}

// id returns the ID of link from->to, assigning the next one on first
// sight.
func (t *linkTable) id(from, to int32) int32 {
	if id, ok := t.lookup(from, to); ok {
		return id
	}
	id := int32(len(t.ends))
	t.ends = append(t.ends, [2]int32{from, to})
	if s := t.slot(from, to); s != nil {
		*s = id + 1
	} else {
		t.ids[[2]int32{from, to}] = id
	}
	return id
}

// lookup returns the ID of from->to without assigning one. A miss means
// the link was never seen on any path, working constraint, or candidate —
// set-membership tests against it are vacuously false.
func (t *linkTable) lookup(from, to int32) (int32, bool) {
	if s := t.slot(from, to); s != nil {
		return *s - 1, *s != 0
	}
	id, ok := t.ids[[2]int32{from, to}]
	return id, ok
}

// size is the number of interned links (the link-ID universe).
func (t *linkTable) size() int { return len(t.ends) }
