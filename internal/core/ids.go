package core

import (
	"cmp"
	"fmt"
	"slices"
)

// This file reads a measurement set into the dense IDs the default engine
// runs on. Sensor pairs are indexed by sorting (src, dst) tuples, every
// hop becomes a node ID in one arena, and the §3.1 logical-link expansion
// rewrites that arena rather than copying the measurements. It is the
// package's one front half: the map reference engine's string front half
// lives with that engine in reference_test.go, and the differential tests
// compare the two.

// pathKey places one path of a mesh in (src, dst) order; i is its index
// in Before or After.
type pathKey struct {
	src, dst int
	i        int32
}

func cmpPair(a, b pathKey) int {
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.dst, b.dst)
}

// lastPerPair returns the paths' keys sorted by (src, dst), keeping the
// last path of a duplicated pair, as a map keyed by pair would.
func lastPerPair(paths []*TracePath) []pathKey {
	keys := make([]pathKey, len(paths))
	for i, p := range paths {
		keys[i] = pathKey{p.SrcSensor, p.DstSensor, int32(i)}
	}
	slices.SortFunc(keys, func(a, b pathKey) int {
		if c := cmpPair(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	out := keys[:0]
	for i, k := range keys {
		if i+1 < len(keys) && cmpPair(k, keys[i+1]) == 0 {
			continue
		}
		out = append(out, k)
	}
	return out
}

// pairRef is one pair of the after-pair universe: the indices of the last
// Before and After path measured for it.
type pairRef struct{ b, a int32 }

// checkPath reports a path whose sensors are out of range or whose hop
// list is empty.
func (m *Measurements) checkPath(p *TracePath, mesh string) *ValidationError {
	if p.SrcSensor < 0 || p.SrcSensor >= m.NumSensors ||
		p.DstSensor < 0 || p.DstSensor >= m.NumSensors {
		return &ValidationError{Mesh: mesh, Src: p.SrcSensor, Dst: p.DstSensor,
			Reason: fmt.Sprintf("out of sensor range %d", m.NumSensors)}
	}
	if len(p.Hops) == 0 {
		return &ValidationError{Mesh: mesh, Src: p.SrcSensor, Dst: p.DstSensor,
			Reason: "no hops"}
	}
	return nil
}

// indexPairs validates the measurements and returns the after-pair
// universe sorted by (src, dst): the deterministic iteration order of set
// building. The first defect is reported as the reference validator
// reports it: Before paths in order, then After paths in order, each
// checked for range, then hops, then (After only) a Before measurement.
func (m *Measurements) indexPairs() ([]pairRef, error) {
	for _, p := range m.Before {
		if err := m.checkPath(p, "before"); err != nil {
			return nil, err
		}
	}
	before := lastPerPair(m.Before)
	for _, p := range m.After {
		if err := m.checkPath(p, "after"); err != nil {
			return nil, err
		}
		if _, ok := slices.BinarySearchFunc(before, pathKey{src: p.SrcSensor, dst: p.DstSensor}, cmpPair); !ok {
			return nil, &ValidationError{Mesh: "after", Src: p.SrcSensor, Dst: p.DstSensor,
				Reason: "no before measurement"}
		}
	}
	after := lastPerPair(m.After)
	pairs := make([]pairRef, len(after))
	j := 0
	for k, a := range after {
		for cmpPair(before[j], a) != 0 {
			j++ // every after pair has a before pair, and both lists are sorted
		}
		pairs[k] = pairRef{b: before[j].i, a: a.i}
	}
	return pairs, nil
}

// idHop is one hop as a node ID. uh is the hop's own Unidentified flag:
// path equivalence reads it per hop, not per node.
type idHop struct {
	node int32
	uh   bool
}

// span is one path's hops in the arena: hops[off:end].
type span struct{ off, end int32 }

// idMesh is a measurement set read into node IDs: before[i] and after[i]
// are the spans of m.Before[i] and m.After[i].
type idMesh struct {
	nodes         *nodeTable
	hops          []idHop
	before, after []span
}

// readMesh interns every hop of m, Before then After in hop order.
func readMesh(m *Measurements) *idMesh {
	n := 0
	for _, p := range m.Before {
		n += len(p.Hops)
	}
	for _, p := range m.After {
		n += len(p.Hops)
	}
	x := &idMesh{
		// Every sensor is a node; the hop count bounds the hint, since
		// NumSensors comes from the caller unchecked.
		nodes:  newNodeTable(max(0, min(m.NumSensors, n))),
		hops:   make([]idHop, 0, n),
		before: make([]span, len(m.Before)),
		after:  make([]span, len(m.After)),
	}
	read := func(paths []*TracePath, spans []span) {
		for i, p := range paths {
			off := int32(len(x.hops))
			for _, h := range p.Hops {
				x.hops = append(x.hops, idHop{node: x.nodes.intern(h), uh: h.Unidentified})
			}
			spans[i] = span{off, int32(len(x.hops))}
		}
	}
	read(m.Before, x.before)
	read(m.After, x.after)
	x.nodes.nPhys = int32(x.nodes.size())
	return x
}

// path returns the hops of one span.
func (x *idMesh) path(s span) []idHop { return x.hops[s.off:s.end] }

// expand rewrites the arena with the logical links of §3.1, under the
// rules of expander.expandPath: an interdomain link (u,v) between
// identified hops becomes u -> v(W)@u -> v, where W is the next AS after
// v's (nextASAfter) or, in per-prefix mode, the destination sensor. The
// logical node is interned by (u, v, W).
func (x *idMesh) expand(m *Measurements, perPrefix bool) {
	t := x.nodes
	t.perPrefix = perPrefix
	t.logIDs = map[logicalKey]int32{}
	out := make([]idHop, 0, len(x.hops)+len(x.hops)/2)
	rewrite := func(paths []*TracePath, spans []span) {
		for i, p := range paths {
			ids := x.path(spans[i])
			off := int32(len(out))
			hops := p.Hops
			if len(hops) > 0 {
				out = append(out, ids[0])
			}
			for j := 0; j+1 < len(hops); j++ {
				u, v := hops[j], hops[j+1]
				if !u.Unidentified && !v.Unidentified && u.AS != v.AS {
					tag, ok := p.DstSensor, true
					if !perPrefix {
						w, wok := nextASAfter(hops, j+1)
						tag, ok = int(w), wok
					}
					if ok {
						k := logicalKey{u: ids[j].node, v: ids[j+1].node, tag: tag}
						out = append(out, idHop{node: t.logicalNode(k, v.AS)})
					}
				}
				out = append(out, ids[j+1])
			}
			spans[i] = span{off, int32(len(out))}
		}
	}
	rewrite(m.Before, x.before)
	rewrite(m.After, x.after)
	x.hops = out
}

// appendLinkIDs appends the IDs of the links along hops to dst.
func appendLinkIDs(dst []int32, links *linkTable, hops []idHop) []int32 {
	for i := 0; i+1 < len(hops); i++ {
		dst = append(dst, links.id(hops[i].node, hops[i+1].node))
	}
	return dst
}

// ExpandedSize reports the size of the diagnosis graph after logical-link
// expansion: distinct nodes and distinct directed links over all paths.
// With perPrefix true it uses per-prefix granularity. This quantifies the
// §3.1 scalability trade-off between the two tag granularities.
func ExpandedSize(m *Measurements, perPrefix bool) (nodes, links int) {
	x := readMesh(m)
	x.expand(m, perPrefix)
	lt := newLinkTable(x.nodes)
	var buf []int32
	for _, spans := range [][]span{x.before, x.after} {
		for _, s := range spans {
			buf = appendLinkIDs(buf[:0], lt, x.path(s))
		}
	}
	return x.nodes.size(), lt.size()
}
