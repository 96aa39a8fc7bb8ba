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
// Figure 3 writes the node as "y1(B)"; Display renders that form. The
// expansion itself runs over node IDs (idMesh.expand in ids.go).

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
