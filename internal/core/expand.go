package core

import (
	"fmt"
	"strings"

	"netdiag/internal/topology"
)

// This file implements the logical-link expansion of §3.1. Each interdomain
// link (u,v) on a path is replaced by two logical links u->v(W) and
// v(W)->v, where W is the next AS the path visits after v's AS — or v's
// own AS when the path terminates there (traffic delivered into v's AS is
// its own per-neighbor class). A BGP export misconfiguration at v towards
// u for routes through W then appears as the failure of exactly these
// logical links, while the physical link (u,v) keeps carrying paths
// towards other neighbor ASes.
//
// The logical node is keyed internally by (u, v, W): the same border router
// v reached from different upstream routers yields distinct logical nodes,
// so every logical link maps back to exactly one physical link. The paper's
// Figure 3 writes the node as "y1(B)"; Display renders that form.

// expander is the reference engine's (RunReference) string form of the
// expansion; the default engine expands node IDs in ids.go. It rewrites
// paths with logical links and records how each logical link maps back to
// its physical interdomain link. In per-prefix mode
// (the finest granularity §3.1 discusses and rejects for scalability, kept
// here for the ablation study) the logical tag is the destination prefix
// of the path instead of the next AS.
type expander struct {
	perPrefix bool
	phys      map[Link]Link // logical-space link -> physical link
	// children lists the logical links derived from each physical
	// interdomain link. A physical failure of the link fails all of them;
	// a misconfiguration fails a subset. Each logical child belongs to
	// exactly one parent (its name embeds the physical endpoints), so one
	// flat seen-set dedups the lists — no per-parent set needed.
	children  map[Link][]Link
	childSeen linkSet
}

func newExpander(perPrefix bool) *expander {
	return &expander{
		perPrefix: perPrefix,
		phys:      map[Link]Link{},
		children:  map[Link][]Link{},
		childSeen: linkSet{},
	}
}

func (e *expander) addChild(parent, child Link) {
	if !e.childSeen.has(child) {
		e.childSeen.add(child)
		e.children[parent] = append(e.children[parent], child)
	}
}

// logicalNodeName builds the unique internal name of a logical node.
func logicalNodeName(u, v Node, tag string) Node {
	return Node(fmt.Sprintf("%s(%s)@%s", v, tag, u))
}

// Display renders a node for humans, collapsing the internal logical-node
// key to the paper's "v(W)" form.
func Display(n Node) string {
	s := string(n)
	if i := strings.Index(s, ")@"); i >= 0 {
		return s[:i+1]
	}
	return s
}

// IsLogical reports whether n is a logical node from the expansion.
func IsLogical(n Node) bool { return strings.Contains(string(n), ")@") }

// physical maps a diagnosis-space link back to its physical link. For
// ordinary links this is the identity.
func (e *expander) physical(l Link) Link {
	if p, ok := e.phys[l]; ok {
		return p
	}
	return l
}

// expandPath returns a rewritten copy of p with logical links inserted.
// Links with unidentified endpoints (or whose next-AS determination is
// hidden by unidentified hops) are kept physical.
func (e *expander) expandPath(p *TracePath) *TracePath {
	hops := p.Hops
	out := &TracePath{SrcSensor: p.SrcSensor, DstSensor: p.DstSensor, OK: p.OK}
	if len(hops) == 0 {
		return out
	}
	out.Hops = append(out.Hops, hops[0])
	for i := 0; i+1 < len(hops); i++ {
		u, v := hops[i], hops[i+1]
		if !u.Unidentified && !v.Unidentified && u.AS != v.AS {
			tag, ok := "", false
			if e.perPrefix {
				tag, ok = fmt.Sprintf("p%d", p.DstSensor), true
			} else if w, wok := nextASAfter(hops, i+1); wok {
				tag, ok = itoaASN(w), true
			}
			if ok {
				ln := Hop{Node: logicalNodeName(u.Node, v.Node, tag), AS: v.AS}
				out.Hops = append(out.Hops, ln, v)
				physLink := Link{From: u.Node, To: v.Node}
				up := Link{From: u.Node, To: ln.Node}
				down := Link{From: ln.Node, To: v.Node}
				e.phys[up] = physLink
				e.phys[down] = physLink
				e.addChild(physLink, up)
				e.addChild(physLink, down)
				continue
			}
		}
		out.Hops = append(out.Hops, v)
	}
	return out
}

// nextASAfter scans past the AS segment starting at hops[idx] and returns
// the next identified AS the path enters — or the segment's own AS when
// the path terminates inside it (terminating traffic forms its own
// per-neighbor class). ok is false only when an unidentified hop hides the
// answer.
func nextASAfter(hops []Hop, idx int) (topology.ASN, bool) {
	cur := hops[idx].AS
	for j := idx + 1; j < len(hops); j++ {
		if hops[j].Unidentified {
			return 0, false
		}
		if hops[j].AS != cur {
			return hops[j].AS, true
		}
	}
	return cur, true
}

// expandAll rewrites every path of the measurements, sharing one logical
// namespace so identical (u,v,W) combinations across paths coincide.
func (e *expander) expandAll(m *Measurements) *Measurements {
	out := &Measurements{NumSensors: m.NumSensors}
	for _, p := range m.Before {
		out.Before = append(out.Before, e.expandPath(p))
	}
	for _, p := range m.After {
		out.After = append(out.After, e.expandPath(p))
	}
	return out
}
