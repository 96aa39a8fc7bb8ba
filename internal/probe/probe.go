// Package probe defines the measurement-plane types: traceroute paths,
// full-mesh measurement sets, and the masking of hops inside ASes that
// block traceroute (the paper's "unidentified hops", §3.4).
package probe

import (
	"context"

	"netdiag/internal/pool"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// Metrics instruments the measurement plane: how many full meshes were
// filled, how many sensor pairs were traced, and how many of those pairs
// came back unreachable. A nil *Metrics disables everything.
type Metrics struct {
	MeshFills        *telemetry.Counter
	PairsTraced      *telemetry.Counter
	PairsUnreachable *telemetry.Counter
	// Pool carries the shared pool-layer task metrics of the per-pair
	// traceroute fan-out.
	Pool *pool.Metrics
}

// NewMetrics returns the probe metrics of a registry (nil registry -> nil).
func NewMetrics(r *telemetry.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		MeshFills:        r.Counter("probe.mesh_fills"),
		PairsTraced:      r.Counter("probe.pairs_traced"),
		PairsUnreachable: r.Counter("probe.pairs_unreachable"),
		Pool:             pool.NewMetrics(r),
	}
}

func (m *Metrics) poolMetrics() *pool.Metrics {
	if m == nil {
		return nil
	}
	return m.Pool
}

// meshFilled records one completed full mesh.
func (m *Metrics) meshFilled(mesh *Mesh) {
	if m == nil {
		return
	}
	m.MeshFills.Inc()
	traced, unreachable := int64(0), int64(0)
	for i := range mesh.Paths {
		for j, p := range mesh.Paths[i] {
			if i == j {
				continue
			}
			traced++
			if p == nil || !p.OK {
				unreachable++
			}
		}
	}
	m.PairsTraced.Add(traced)
	m.PairsUnreachable.Add(unreachable)
}

// Hop is one traceroute hop. For hops inside traceroute-blocking ASes the
// address is "*" and Unidentified is set; Router and AS keep the ground
// truth for evaluation but the diagnosis algorithms never look at them on
// unidentified hops.
type Hop struct {
	Addr         string
	Router       topology.RouterID
	AS           topology.ASN
	Unidentified bool
}

// Path is a traceroute result from Src to Dst. Hops always starts with the
// source router; when OK is true it ends at the destination router. When OK
// is false the hop list is the partial path up to where forwarding stopped
// (blackhole or loop).
type Path struct {
	Src, Dst topology.RouterID
	Hops     []Hop
	OK       bool
}

// Links returns the directed (router,router) pairs along the path.
func (p *Path) Links() [][2]topology.RouterID {
	if len(p.Hops) < 2 {
		return nil
	}
	out := make([][2]topology.RouterID, 0, len(p.Hops)-1)
	for i := 0; i+1 < len(p.Hops); i++ {
		out = append(out, [2]topology.RouterID{p.Hops[i].Router, p.Hops[i+1].Router})
	}
	return out
}

// Mesh is a full mesh of traceroutes among sensors, the measurement unit of
// the paper: every sensor traces to every other sensor and reports to AS-X.
type Mesh struct {
	Sensors []topology.RouterID
	// Paths[i][j] is the traceroute from Sensors[i] to Sensors[j]; the
	// diagonal is nil.
	Paths [][]*Path
}

// NewMesh allocates an empty mesh for the given sensors.
func NewMesh(sensors []topology.RouterID) *Mesh {
	m := &Mesh{Sensors: sensors, Paths: make([][]*Path, len(sensors))}
	for i := range m.Paths {
		m.Paths[i] = make([]*Path, len(sensors))
	}
	return m
}

// FillMeshCtx builds a full mesh by invoking trace for every ordered
// sensor pair (i, j), i != j, fanning the pairs out over at most `workers`
// goroutines. trace must be safe for concurrent use when workers > 1 (a
// traceroute over a converged, read-only forwarding state is). Each pair's
// result lands in its own Paths slot, so the mesh is identical at any
// parallelism level. A non-nil met counts the fill, every traced pair and
// every unreachable pair, and the per-pair fan-out reports pool task
// metrics. ctx is checked between sensor-pair tasks, so a mesh
// measurement under a per-request deadline aborts promptly and returns
// ctx.Err() with a partially filled mesh. A nil ctx means
// context.Background().
func FillMeshCtx(ctx context.Context, sensors []topology.RouterID, workers int, trace func(i, j int) *Path, met *Metrics) (*Mesh, error) {
	m := NewMesh(sensors)
	n := len(sensors)
	type job struct{ i, j int }
	jobs := make([]job, 0, n*n-n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				jobs = append(jobs, job{i, j})
			}
		}
	}
	err := pool.ForEachM(ctx, workers, len(jobs), func(k int) error {
		m.Paths[jobs[k].i][jobs[k].j] = trace(jobs[k].i, jobs[k].j)
		return nil
	}, met.poolMetrics())
	if err != nil {
		return m, err
	}
	met.meshFilled(m)
	return m, nil
}

// Reachability returns the reachability matrix R of the paper: R[i][j]
// is true when the path from sensor i to sensor j works.
func (m *Mesh) Reachability() [][]bool {
	r := make([][]bool, len(m.Sensors))
	for i := range r {
		r[i] = make([]bool, len(m.Sensors))
		for j := range r[i] {
			if i == j {
				r[i][j] = true
				continue
			}
			r[i][j] = m.Paths[i][j] != nil && m.Paths[i][j].OK
		}
	}
	return r
}

// AnyFailed reports whether at least one sensor pair is unreachable — the
// trigger condition for invoking the troubleshooter.
func (m *Mesh) AnyFailed() bool {
	for i := range m.Paths {
		for j, p := range m.Paths[i] {
			if i != j && (p == nil || !p.OK) {
				return true
			}
		}
	}
	return false
}

// Mask returns a copy of the mesh with every hop inside a blocked AS turned
// into an unidentified hop. Sensors themselves are never masked (they
// actively participate), matching the paper's model where blocking hides
// routers, not end hosts.
func (m *Mesh) Mask(blocked map[topology.ASN]bool) *Mesh {
	out := NewMesh(m.Sensors)
	for i := range m.Paths {
		for j, p := range m.Paths[i] {
			if p == nil {
				continue
			}
			cp := *p
			cp.Hops = make([]Hop, len(p.Hops))
			copy(cp.Hops, p.Hops)
			for h := range cp.Hops {
				hop := &cp.Hops[h]
				if blocked[hop.AS] && hop.Router != p.Src && hop.Router != p.Dst {
					hop.Addr = "*"
					hop.Unidentified = true
				}
			}
			out.Paths[i][j] = &cp
		}
	}
	return out
}

// String renders a path like traceroute output, for logs and examples.
func (p *Path) String() string {
	s := ""
	for i, h := range p.Hops {
		if i > 0 {
			s += " -> "
		}
		s += h.Addr
	}
	if !p.OK {
		s += " -> !unreachable"
	}
	return s
}

// CoveredASes returns the set of ASes traversed by any path in the mesh,
// counting unidentified hops' (ground-truth) ASes as covered — this is the
// universe used for the paper's AS-level specificity.
func (m *Mesh) CoveredASes() map[topology.ASN]bool {
	out := map[topology.ASN]bool{}
	for i := range m.Paths {
		for _, p := range m.Paths[i] {
			if p == nil {
				continue
			}
			for _, h := range p.Hops {
				out[h.AS] = true
			}
		}
	}
	return out
}
