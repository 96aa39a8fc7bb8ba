package core

import (
	"sort"

	"netdiag/internal/topology"
)

// This file implements the Looking-Glass machinery of ND-LG (§3.4):
// mapping unidentified hops (UHs) to candidate ASes using AS-path queries,
// and clustering unidentified links that could be the same physical link.

// LookingGlass answers AS-path queries the way a Looking Glass server
// does: the AS-level path from an AS to the prefix covering a sensor.
// Available reports whether the AS operates a reachable Looking Glass;
// implementations should make the troubleshooter's own AS always available
// (it can consult its own BGP tables, which the paper uses for mapping
// downstream UHs).
type LookingGlass interface {
	Available(as topology.ASN) bool
	ASPath(from topology.ASN, dstSensor int) ([]topology.ASN, bool)
}

// asTag is a sorted set of candidate ASes for a UH.
type asTag []topology.ASN

// mapUHTags is the reference engine's mapUHs over node IDs: the tag of
// unidentified node id lands in t.tags[id].
func (t *nodeTable) mapUHTags(m *Measurements, lg LookingGlass) {
	t.tags = make([]asTag, t.nPhys)
	for _, paths := range [][]*TracePath{m.Before, m.After} {
		for _, p := range paths {
			mapUHsOnPath(p, lg, func(k int, tag asTag) { t.tags[t.ids[p.Hops[k].Node]] = tag })
		}
	}
}

// mapUHsOnPath tags the unidentified runs of one path, calling set with
// the hop index and tag of every hop it tags, in path order.
func mapUHsOnPath(p *TracePath, lg LookingGlass, set func(k int, tag asTag)) {
	hops := p.Hops
	// Identified ASes along the path, in order, deduplicated.
	var pathASes []topology.ASN
	for _, h := range hops {
		if h.Unidentified {
			continue
		}
		if len(pathASes) == 0 || pathASes[len(pathASes)-1] != h.AS {
			pathASes = append(pathASes, h.AS)
		}
	}
	for i := 0; i < len(hops); {
		if !hops[i].Unidentified {
			i++
			continue
		}
		j := i
		for j+1 < len(hops) && hops[j+1].Unidentified {
			j++
		}
		// Run [i..j]. Bounding identified hops:
		if i > 0 && j+1 < len(hops) && !hops[j+1].Unidentified {
			a, c := hops[i-1].AS, hops[j+1].AS
			if tag, ok := alignRun(a, c, pathASes, lg, p.DstSensor); ok {
				for k := i; k <= j; k++ {
					set(k, tag)
				}
			}
		}
		i = j + 1
	}
}

// alignRun finds the AS tag for a UH run bounded by ASes a and c.
func alignRun(a, c topology.ASN, pathASes []topology.ASN, lg LookingGlass, dst int) (asTag, bool) {
	for _, q := range pathASes {
		if !lg.Available(q) {
			continue
		}
		asPath, ok := lg.ASPath(q, dst)
		if !ok {
			continue
		}
		ai := indexOfAS(asPath, a, 0)
		if ai < 0 {
			continue
		}
		ci := indexOfAS(asPath, c, ai+1)
		if ci < 0 {
			continue
		}
		if ci == ai+1 {
			// The AS path shows a and c adjacent but the traceroute has
			// hidden hops between them; with whole-AS blocking this means
			// the LG view disagrees — try another LG.
			continue
		}
		tag := append(asTag{}, asPath[ai+1:ci]...)
		sort.Slice(tag, func(x, y int) bool { return tag[x] < tag[y] })
		return tag, true
	}
	return nil, false
}

func indexOfAS(path []topology.ASN, a topology.ASN, from int) int {
	for i := from; i < len(path); i++ {
		if path[i] == a {
			return i
		}
	}
	return -1
}

// endpointKey captures the paper's rule for when two link endpoints can be
// "the same hop": identified endpoints must be the same router; UH
// endpoints must carry identical non-empty AS tags.
type endpointKey struct {
	identified Node
	tag        string
	ok         bool
}

// tagKey is the endpoint key of an unidentified hop tagged t.
func tagKey(t asTag) endpointKey {
	if len(t) == 0 {
		return endpointKey{ok: false}
	}
	buf := make([]byte, 0, 8*len(t))
	for _, a := range t {
		buf = append(buf, ',')
		buf = append(buf, itoaASN(a)...)
	}
	return endpointKey{tag: string(buf), ok: true}
}

func itoaASN(a topology.ASN) string {
	// Small manual conversion to avoid fmt in a hot loop.
	if a == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	n := int(a)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
