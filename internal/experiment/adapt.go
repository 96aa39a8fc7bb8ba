// Package experiment reproduces the paper's evaluation (§4–§5): it places
// sensors on generated research-Internet topologies, injects link failures,
// router failures and BGP misconfigurations, adapts the simulator's
// measurements into the diagnosis types, runs the algorithm variants and
// collects the figures' metrics.
package experiment

import (
	"fmt"
	"slices"
	"sort"

	"netdiag/internal/bgp"
	"netdiag/internal/core"
	"netdiag/internal/netsim"
	"netdiag/internal/probe"
	"netdiag/internal/topology"
)

// ToMeasurements converts the pre- and post-failure meshes into the
// diagnosis input. Unidentified hops get globally unique placeholder node
// names (two stars on different paths can never be assumed identical).
// Hop ASes are taken from the mesh (the simulator's ground truth, which in
// this simulation coincides with what IP-to-AS mapping yields — see
// ToMeasurementsMapped and internal/ip2as).
func ToMeasurements(before, after *probe.Mesh) *core.Measurements {
	return ToMeasurementsMapped(before, after, nil)
}

// ToMeasurementsMapped is ToMeasurements with an explicit IP-to-AS mapper:
// identified hop ASes are derived by looking the hop address up, the way a
// real troubleshooter maps traceroute output to ASes (§3.1). Hops whose
// address the mapper cannot resolve become unidentified. A nil mapper uses
// the mesh's own AS fields.
func ToMeasurementsMapped(before, after *probe.Mesh, lookup func(addr string) (topology.ASN, bool)) *core.Measurements {
	m := &core.Measurements{NumSensors: len(before.Sensors)}
	m.Before = meshPaths(before, "b", lookup)
	m.After = meshPaths(after, "a", lookup)
	return m
}

func meshPaths(mesh *probe.Mesh, tag string, lookup func(string) (topology.ASN, bool)) []*core.TracePath {
	var out []*core.TracePath
	for i := range mesh.Paths {
		for j, p := range mesh.Paths[i] {
			if p != nil {
				out = append(out, adaptPath(p, i, j, tag, lookup))
			}
		}
	}
	return out
}

// adaptPath converts the traceroute of sensor pair (i, j) of the mesh
// tagged tag ("b" for T−, "a" for T+), which names its unidentified hops.
func adaptPath(p *probe.Path, i, j int, tag string, lookup func(string) (topology.ASN, bool)) *core.TracePath {
	tp := &core.TracePath{SrcSensor: i, DstSensor: j, OK: p.OK}
	if len(p.Hops) > 0 {
		tp.Hops = make([]core.Hop, 0, len(p.Hops))
	}
	for k, h := range p.Hops {
		as, known := h.AS, true
		if lookup != nil && !h.Unidentified {
			as, known = lookup(h.Addr)
		}
		if h.Unidentified || !known {
			tp.Hops = append(tp.Hops, core.Hop{
				Node:         core.Node(fmt.Sprintf("*%s:%d:%d:%d", tag, i, j, k)),
				Unidentified: true,
			})
			continue
		}
		tp.Hops = append(tp.Hops, core.Hop{Node: core.Node(h.Addr), AS: as})
	}
	return tp
}

// MeasurementsAfter returns the diagnosis input for after, a post-failure
// mesh over e.Sensors: the value ToMeasurementsMapped(e.BeforeMesh,
// after, e.IP2AS.Lookup) returns, without adapting T− again. Before is the
// adaptation NewEnv made, shared read-only by every caller. A T+ path
// whose outcome and probe hops equal its T− path's is the adapted T−
// path itself, unless that has an unidentified hop, whose placeholder
// name differs between T− and T+.
func (e *Env) MeasurementsAfter(after *probe.Mesh) *core.Measurements {
	m := &core.Measurements{NumSensors: len(e.BeforeMesh.Sensors), Before: e.before}
	for i := range after.Paths {
		for j, p := range after.Paths[i] {
			if p == nil {
				continue
			}
			tp := e.unchanged(i, j, p)
			if tp == nil {
				tp = adaptPath(p, i, j, "a", e.IP2AS.Lookup)
			}
			m.After = append(m.After, tp)
		}
	}
	return m
}

// unchanged returns the adapted T− path of pair (i, j) when p, its T+
// path, can share it, and nil otherwise.
func (e *Env) unchanged(i, j int, p *probe.Path) *core.TracePath {
	if i >= len(e.reuse) || j >= len(e.reuse[i]) || e.reuse[i][j] == nil {
		return nil
	}
	if bp := e.BeforeMesh.Paths[i][j]; p.OK != bp.OK || !slices.Equal(p.Hops, bp.Hops) {
		return nil
	}
	return e.reuse[i][j]
}

// adaptBefore adapts the T− mesh once (see MeasurementsAfter): before
// holds every path in ToMeasurementsMapped's order, clipped so an append
// by a caller copies instead of writing into the shared array, and
// reuse[i][j] holds pair (i, j)'s path when it has no unidentified hop.
func (e *Env) adaptBefore() {
	e.before = slices.Clip(meshPaths(e.BeforeMesh, "b", e.IP2AS.Lookup))
	e.reuse = make([][]*core.TracePath, len(e.BeforeMesh.Paths))
	for i, row := range e.BeforeMesh.Paths {
		e.reuse[i] = make([]*core.TracePath, len(row))
	}
	for _, tp := range e.before {
		if !slices.ContainsFunc(tp.Hops, func(h core.Hop) bool { return h.Unidentified }) {
			e.reuse[tp.SrcSensor][tp.DstSensor] = tp
		}
	}
}

// ProbedLinks extracts the directed physical probed-link universe E from
// the unmasked pre-failure mesh.
func ProbedLinks(topo *topology.Topology, mesh *probe.Mesh) []core.Link {
	set := map[core.Link]bool{}
	for i := range mesh.Paths {
		for _, p := range mesh.Paths[i] {
			if p == nil {
				continue
			}
			for k := 0; k+1 < len(p.Hops); k++ {
				a, b := p.Hops[k], p.Hops[k+1]
				set[core.Link{From: core.Node(a.Addr), To: core.Node(b.Addr)}] = true
			}
		}
	}
	out := make([]core.Link, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// directedLink renders a physical link as a core.Link in a direction.
func directedLink(topo *topology.Topology, from, to topology.RouterID) core.Link {
	return core.Link{
		From: core.Node(topo.Router(from).Addr),
		To:   core.Node(topo.Router(to).Addr),
	}
}

// AdaptWithdrawals converts simulator withdrawals into diagnosis
// withdrawals, resolving each withdrawn prefix to the sensors it covers.
func AdaptWithdrawals(topo *topology.Topology, ws []netsim.Withdrawal,
	sensorASes []topology.ASN) []core.Withdrawal {
	byPrefix := map[bgp.Prefix][]int{}
	for i, as := range sensorASes {
		byPrefix[bgp.PrefixFor(as)] = append(byPrefix[bgp.PrefixFor(as)], i)
	}
	var out []core.Withdrawal
	for _, w := range ws {
		dsts := byPrefix[w.Prefix]
		if len(dsts) == 0 {
			continue
		}
		out = append(out, core.Withdrawal{
			At:         core.Node(topo.Router(w.At).Addr),
			From:       core.Node(topo.Router(w.From).Addr),
			DstSensors: dsts,
		})
	}
	return out
}

// AdaptIGPDowns renders AS-X's failed intra-AS links as directed diagnosis
// links (both directions).
func AdaptIGPDowns(n *netsim.Network, asx topology.ASN) []core.Link {
	var out []core.Link
	topo := n.Topology()
	for _, d := range n.IGPLinkDowns(asx) {
		l := topo.Link(d.Link)
		out = append(out,
			directedLink(topo, l.A, l.B),
			directedLink(topo, l.B, l.A),
		)
	}
	return out
}
