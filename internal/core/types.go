// Package core implements the NetDiagnoser diagnosis algorithms of the
// paper (CoNEXT 2007): multi-AS Boolean tomography (Tomo, §2), logical
// links and reroute information (ND-edge, §3.1–3.2), control-plane
// augmentation (ND-bgpigp, §3.3), and Looking-Glass-assisted diagnosis
// under blocked traceroutes (ND-LG, §3.4), plus the SCFS baseline of
// Duffield and the diagnosability metric of §4.
//
// The package is measurement-driven: it consumes traceroute-style hop
// sequences (before and after a failure event) and optional routing events,
// and produces a hypothesis set of links whose failure explains the
// observations. It knows nothing about the simulator; adapters feed it.
package core

import (
	"fmt"
	"sort"

	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// Node identifies a vertex of the diagnosis graph: a router address, a
// unique placeholder for an unidentified hop ("*"), or a logical node
// introduced by the per-neighbor logical-link expansion of §3.1.
type Node string

// Link is a directed edge of the diagnosis graph.
type Link struct {
	From, To Node
}

// String renders the link as "from->to".
func (l Link) String() string { return string(l.From) + "->" + string(l.To) }

// Hop is one traceroute hop as the troubleshooter sees it. AS is zero and
// Unidentified true for hops inside traceroute-blocking ASes.
type Hop struct {
	Node         Node
	AS           topology.ASN
	Unidentified bool
}

// TracePath is a traceroute between two sensors. Hops starts at the source
// sensor; when OK it ends at the destination sensor, otherwise it is the
// partial path up to where probing stopped.
type TracePath struct {
	SrcSensor, DstSensor int
	Hops                 []Hop
	OK                   bool
}

// Links returns the directed links along the path.
func (p *TracePath) Links() []Link {
	if len(p.Hops) < 2 {
		return nil
	}
	out := make([]Link, 0, len(p.Hops)-1)
	for i := 0; i+1 < len(p.Hops); i++ {
		out = append(out, Link{From: p.Hops[i].Node, To: p.Hops[i+1].Node})
	}
	return out
}

// Measurements is the full input of a diagnosis round: the full-mesh
// traceroutes taken before (T-) and after (T+) the failure event. The
// reachability matrix R of the paper is the OK flags of After.
type Measurements struct {
	NumSensors int
	Before     []*TracePath
	After      []*TracePath
}

// ValidationError reports malformed measurements: which mesh ("before" or
// "after") and sensor pair the offending path belongs to, and why it was
// rejected. Every diagnosis entry point validates its input and returns a
// *ValidationError that callers can extract with errors.As.
type ValidationError struct {
	// Mesh is "before" or "after".
	Mesh string
	// Src, Dst are the sensor indices of the offending path.
	Src, Dst int
	// Reason describes the defect.
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("core: %s path %d->%d invalid: %s", e.Mesh, e.Src, e.Dst, e.Reason)
}

// Validate checks the measurements are well-formed: sensor indices in
// range, hop lists non-empty, and each After pair also measured Before.
// A failure is reported as a *ValidationError.
func (m *Measurements) Validate() error {
	_, err := m.indexPairs()
	return err
}

// linkSet is a set of links with deterministic iteration helpers.
type linkSet map[Link]struct{}

func (s linkSet) add(l Link)      { s[l] = struct{}{} }
func (s linkSet) has(l Link) bool { _, ok := s[l]; return ok }
func (s linkSet) sorted() []Link {
	out := make([]Link, 0, len(s))
	for l := range s {
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

// HypLink is one entry of the hypothesis set, carrying both the diagnosis
// link (possibly logical or unidentified) and its physical/AS attribution
// for reporting and evaluation.
type HypLink struct {
	// Link is the edge in diagnosis space (may be logical or involve
	// unidentified hops).
	Link Link
	// Phys is the corresponding physical directed link when known (logical
	// links collapse to the interdomain link they annotate); zero-valued
	// when the link involves unidentified hops.
	Phys Link
	// PhysKnown reports whether Phys is meaningful.
	PhysKnown bool
	// ASes lists the candidate ASes containing this link: both endpoint
	// ASes for an identified link, the Looking-Glass tags for an
	// unidentified one. Sorted ascending.
	ASes []topology.ASN
}

// Result is the output of a diagnosis: the hypothesis set H.
type Result struct {
	// Hypothesis is H, sorted by link.
	Hypothesis []HypLink
	// UnexplainedFailures counts failed paths no candidate could explain
	// (should be zero; non-zero indicates inconsistent measurements).
	UnexplainedFailures int
	// Iterations is the number of greedy rounds taken.
	Iterations int
	// Telemetry holds the timed phase spans of this run: validate (which
	// also reads the measurements into node and pair IDs), expand (logical
	// links only), build_sets, candidates, greedy with one greedy_iter span
	// per round, and attribute. Together they cover the whole run. It is
	// populated only when the run was configured with a telemetry registry
	// or logger (Options.Telemetry / Options.Logger); otherwise nil.
	Telemetry []telemetry.Span
}

// PhysLinks returns the deduplicated physical links of the hypothesis,
// sorted. Links without a known physical identity are skipped.
func (r *Result) PhysLinks() []Link {
	s := linkSet{}
	for _, h := range r.Hypothesis {
		if h.PhysKnown {
			s.add(h.Phys)
		}
	}
	return s.sorted()
}

// ASes returns the union of the hypothesis links' AS attributions, sorted.
func (r *Result) ASes() []topology.ASN {
	set := map[topology.ASN]bool{}
	for _, h := range r.Hypothesis {
		for _, a := range h.ASes {
			set[a] = true
		}
	}
	out := make([]topology.ASN, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
