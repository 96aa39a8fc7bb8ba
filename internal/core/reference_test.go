package core

import (
	"context"
	"fmt"
	"sort"

	"netdiag/internal/topology"
)

// This file is the map-based reference engine: per-link Go maps, the
// string front half and full per-iteration rescoring. It is the readable
// oracle the default engine is differentially tested against, and the map
// side of the diagnose benchmarks. It lives in the tests because no
// production caller runs it.

// refEngine is one run of the reference engine. It shares engine (context,
// options, telemetry) with the default engine and keeps its own state in
// Go maps.
type refEngine struct {
	*engine

	exp    *expander
	nodeAS map[Node]topology.ASN
	nodeUH map[Node]bool
	uhTags map[Node]asTag

	allLinks linkSet // every link of every before path (diagnosis space)
	// linkPaths maps each before-path link to the sensor pairs whose
	// before path contains it (clustering rule ii).
	linkPaths map[Link]map[pair]bool
	failSets  []*obsSet
	rerSets   []*obsSet
	working   linkSet
	cand      linkSet
	// extraCover extends a candidate's explanatory reach: Looking-Glass
	// clusters (§3.4) and, for a physical interdomain link, its logical
	// children (a physical failure fails all of them).
	extraCover map[Link][]Link
	hyp        []Link
}

// RunReference runs the reference engine. Option defaults, phase spans
// and telemetry match RunCtx, and so does the hypothesis, byte for byte on
// the wire. It scores sequentially at any Options.Parallelism.
func RunReference(ctx context.Context, m *Measurements, opts Options) (*Result, error) {
	return runWith(ctx, m, opts, func(e *engine, m *Measurements) (*Result, error) {
		return (&refEngine{engine: e}).run(m)
	})
}

// run is the map-based pipeline: the string front half (per-pair maps,
// the string expander over a copy of the measurements, node maps), set
// building, candidate construction and the full-rescore greedy loop over
// linkSet maps.
func (e *refEngine) run(m *Measurements) (*Result, error) {
	e.exp = newExpander(e.opts.PerPrefixLogical)
	e.nodeAS = map[Node]topology.ASN{}
	e.nodeUH = map[Node]bool{}
	e.allLinks = linkSet{}
	e.linkPaths = map[Link]map[pair]bool{}
	e.working = linkSet{}
	e.cand = linkSet{}
	e.extraCover = map[Link][]Link{}

	end := e.phase("validate")
	idx := m.buildIndex()
	err := m.validateIndexed(idx)
	end()
	if err != nil {
		return nil, err
	}
	work := m
	if e.opts.LogicalLinks {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		end = e.phase("expand")
		work = e.exp.expandAll(m)
		idx = work.buildIndex()
		end()
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	end = e.phase("build_sets")
	e.collectNodes(work)
	if e.opts.LG != nil {
		e.uhTags = mapUHs(work, e.opts.LG)
	}
	e.buildSets(idx)
	end()
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	end = e.phase("candidates")
	e.exonerateWithdrawalEdges()
	e.buildCandidates()
	e.addPhysParents()
	e.applyIGPDowns()
	if e.opts.LG != nil {
		e.buildClusters()
	}
	end()
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	end = e.phase("greedy")
	iters, err := e.greedy()
	end()
	if err != nil {
		return nil, err
	}
	unexplained := 0
	for _, fs := range e.failSets {
		if !fs.explained {
			unexplained++
		}
	}
	end = e.phase("attribute")
	res := &Result{Iterations: iters, UnexplainedFailures: unexplained, Hypothesis: e.attribute()}
	end()
	return res, nil
}

func (e *refEngine) collectNodes(m *Measurements) {
	collect := func(paths []*TracePath) {
		for _, p := range paths {
			for _, h := range p.Hops {
				if h.Unidentified {
					e.nodeUH[h.Node] = true
				} else {
					e.nodeAS[h.Node] = h.AS
				}
			}
		}
	}
	collect(m.Before)
	collect(m.After)
}

// buildSets derives failure sets, reroute sets and working constraints.
func (e *refEngine) buildSets(idx *meshIndex) {
	for _, pr := range idx.pairs {
		ap := idx.after[pr]
		bp := idx.before[pr]
		if bp == nil {
			continue
		}
		bLinks := bp.Links()
		for _, l := range bLinks {
			e.allLinks.add(l)
			mp := e.linkPaths[l]
			if mp == nil {
				mp = map[pair]bool{}
				e.linkPaths[l] = mp
			}
			mp[pr] = true
		}
		if !bp.OK {
			continue // no pre-failure baseline for this pair
		}
		switch {
		case ap.OK && e.opts.UseReroutes:
			aLinks := ap.Links()
			for _, l := range aLinks {
				e.working.add(l)
			}
			if !pathsEquivalent(bp, ap) {
				if diff := linksNotIn(bLinks, aLinks); len(diff) > 0 {
					e.rerSets = append(e.rerSets, newObsSet(diff))
				}
			}
		case ap.OK:
			// Tomo's view: the pair works, and Tomo only knows the
			// pre-failure route, so it (wrongly, when rerouted) marks
			// every link of the old path as working. This is exactly the
			// §2.5 limitation the evaluation exposes.
			for _, l := range bLinks {
				e.working.add(l)
			}
		default:
			links := trimByWithdrawals(bp, bLinks, e.opts.Routing)
			if e.opts.UsePartialTraces {
				for _, l := range ap.Links() {
					e.working.add(l)
				}
			}
			e.failSets = append(e.failSets, newObsSet(links))
		}
	}
}

// pathsEquivalent reports whether two hop sequences are indistinguishable
// to the troubleshooter: same length, identified hops equal, unidentified
// positions aligned (a "*" matches a "*").
func pathsEquivalent(a, b *TracePath) bool {
	if len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		ha, hb := a.Hops[i], b.Hops[i]
		if ha.Unidentified != hb.Unidentified {
			return false
		}
		if !ha.Unidentified && ha.Node != hb.Node {
			return false
		}
	}
	return true
}

// linksNotIn returns the links of a absent from b, preserving order.
func linksNotIn(a, b []Link) []Link {
	inB := linkSet{}
	for _, l := range b {
		inB.add(l)
	}
	var out []Link
	for _, l := range a {
		if !inB.has(l) {
			out = append(out, l)
		}
	}
	return out
}

// exonerateWithdrawalEdges marks the physical link under every observed
// withdrawal as working: the withdrawal message arrived over that very
// session, so the link cannot have failed physically. Its logical
// children (a possible export misconfiguration at the announcing router)
// stay eligible.
func (e *refEngine) exonerateWithdrawalEdges() {
	if e.opts.Routing == nil {
		return
	}
	for _, w := range e.opts.Routing.Withdrawals {
		e.working.add(Link{From: w.At, To: w.From})
		e.working.add(Link{From: w.From, To: w.At})
	}
}

func (e *refEngine) buildCandidates() {
	add := func(sets []*obsSet) {
		for _, s := range sets {
			for _, l := range s.links {
				if e.working.has(l) {
					continue
				}
				if !e.opts.KeepUnidentified && (e.nodeUH[l.From] || e.nodeUH[l.To]) {
					continue
				}
				e.cand.add(l)
			}
		}
	}
	add(e.failSets)
	add(e.rerSets)
}

// applyIGPDowns adds AS-X's directly observed failed links to the
// hypothesis and marks the sets they explain.
func (e *refEngine) applyIGPDowns() {
	if e.opts.Routing == nil {
		return
	}
	for _, l := range e.opts.Routing.IGPDownLinks {
		if !e.allLinks.has(l) {
			continue
		}
		e.hyp = append(e.hyp, l)
		delete(e.cand, l)
		e.explain(l)
	}
}

// explain marks every failure and reroute set containing l as explained.
func (e *refEngine) explain(l Link) {
	for _, fs := range e.failSets {
		if !fs.explained && fs.set.has(l) {
			fs.explained = true
		}
	}
	for _, rs := range e.rerSets {
		if !rs.explained && rs.set.has(l) {
			rs.explained = true
		}
	}
}

// addPhysParents makes each physical interdomain link a candidate covering
// its logical children. The per-neighbor expansion splits a link's
// observations across next-AS variants; without the parent candidate, a
// whole-link physical failure would have its greedy score diluted across
// the variants and could be missed. The parent is exonerated when any of
// its children (or the link itself) carries a working path — some traffic
// still crosses the physical link, so only per-neighbor (misconfiguration)
// failures remain possible.
func (e *refEngine) addPhysParents() {
	if !e.opts.LogicalLinks {
		return
	}
	for parent, children := range e.exp.children {
		if e.working.has(parent) {
			continue
		}
		exonerated := false
		var covered []Link
		for _, c := range children {
			if e.working.has(c) {
				exonerated = true
				break
			}
			if e.cand.has(c) {
				covered = append(covered, c)
			}
		}
		if exonerated || len(covered) == 0 {
			continue
		}
		e.cand.add(parent)
		e.extraCover[parent] = append(e.extraCover[parent], covered...)
	}
}

// buildClusters groups unidentified candidate links that could be the same
// physical link under the paper's three rules (§3.4).
func (e *refEngine) buildClusters() {
	var unid []Link
	for _, l := range e.cand.sorted() {
		if e.nodeUH[l.From] || e.nodeUH[l.To] {
			unid = append(unid, l)
		}
	}
	keys := make([][2]endpointKey, len(unid))
	fcounts := make([]int, len(unid))
	for i, l := range unid {
		keys[i] = [2]endpointKey{
			makeEndpointKey(l.From, e.nodeUH[l.From], e.uhTags),
			makeEndpointKey(l.To, e.nodeUH[l.To], e.uhTags),
		}
		for _, fs := range e.failSets {
			if fs.set.has(l) {
				fcounts[i]++
			}
		}
	}
	for i := range unid {
		if !keys[i][0].ok || !keys[i][1].ok {
			continue
		}
		for j := range unid {
			if i == j || !keys[j][0].ok || !keys[j][1].ok {
				continue
			}
			if keys[i][0] != keys[j][0] || keys[i][1] != keys[j][1] {
				continue // rule (i): endpoint identities/tags must match
			}
			if fcounts[i] != fcounts[j] {
				continue // rule (iii): same number of failure sets
			}
			if sharesPath(e.linkPaths[unid[i]], e.linkPaths[unid[j]]) {
				continue // rule (ii): never on the same path
			}
			e.extraCover[unid[i]] = append(e.extraCover[unid[i]], unid[j])
		}
	}
}

func sharesPath(a, b map[pair]bool) bool {
	for p := range a {
		if b[p] {
			return true
		}
	}
	return false
}

// greedy runs the greedy minimum-hitting-set of Algorithm 1,
// extended with reroute sets (§3.2) and link clusters (§3.4). It returns
// the number of iterations. Every round rescores every candidate, in
// sorted-link order. Cancellation is checked once per iteration.
func (e *refEngine) greedy() (int, error) {
	iters := 0
	for {
		if err := e.ctx.Err(); err != nil {
			return iters, err
		}
		remaining := 0
		for _, fs := range e.failSets {
			if !fs.explained {
				remaining++
			}
		}
		for _, rs := range e.rerSets {
			if !rs.explained {
				remaining++
			}
		}
		if remaining == 0 || len(e.cand) == 0 {
			return iters, nil
		}
		iters++
		endIter := e.phaseIter("greedy_iter", iters)

		best := 0
		var bestLinks []Link
		for _, l := range e.cand.sorted() {
			f, r := e.coverCounts(l)
			score := f + r
			switch {
			case score > best:
				best = score
				bestLinks = append(bestLinks[:0], l)
			case score == best && best > 0:
				bestLinks = append(bestLinks, l)
			}
		}
		if best == 0 {
			endIter()
			return iters, nil // remaining sets are unexplainable
		}
		for _, l := range bestLinks {
			e.hyp = append(e.hyp, l)
			delete(e.cand, l)
			e.explain(l)
			for _, cl := range e.extraCover[l] {
				e.explain(cl)
			}
		}
		endIter()
	}
}

// coverCounts returns how many unexplained failure and reroute sets link l
// (together with its cluster) intersects.
func (e *refEngine) coverCounts(l Link) (fails, reroutes int) {
	cover := append([]Link{l}, e.extraCover[l]...)
	for _, fs := range e.failSets {
		if fs.explained {
			continue
		}
		for _, c := range cover {
			if fs.set.has(c) {
				fails++
				break
			}
		}
	}
	for _, rs := range e.rerSets {
		if rs.explained {
			continue
		}
		for _, c := range cover {
			if rs.set.has(c) {
				reroutes++
				break
			}
		}
	}
	return fails, reroutes
}

// attribute builds the reported hypothesis entries with physical and AS
// attribution.
func (e *refEngine) attribute() []HypLink {
	out := make([]HypLink, 0, len(e.hyp))
	seen := linkSet{}
	for _, l := range e.hyp {
		if seen.has(l) {
			continue
		}
		seen.add(l)
		h := HypLink{Link: l}
		phys := e.exp.physical(l)
		if !e.nodeUH[phys.From] && !e.nodeUH[phys.To] {
			h.Phys = phys
			h.PhysKnown = true
		}
		h.ASes = e.linkASes(phys)
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Link.From != out[j].Link.From {
			return out[i].Link.From < out[j].Link.From
		}
		return out[i].Link.To < out[j].Link.To
	})
	return out
}

func (e *refEngine) linkASes(l Link) []topology.ASN {
	set := map[topology.ASN]bool{}
	for _, n := range []Node{l.From, l.To} {
		if e.nodeUH[n] {
			for _, a := range e.uhTags[n] {
				set[a] = true
			}
		} else if a, ok := e.nodeAS[n]; ok {
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

// obsSet is one constraint set: the failure set of a broken path or the
// reroute set of a rerouted one.
type obsSet struct {
	links     []Link
	set       linkSet
	explained bool
}

func newObsSet(links []Link) *obsSet {
	s := &obsSet{links: links, set: linkSet{}}
	for _, l := range links {
		s.set.add(l)
	}
	return s
}

// pair identifies a sensor pair.
type pair struct{ src, dst int }

// meshIndex is the reference engine's per-pair lookup of a measurement
// set plus the sorted pair universe. Validation and set building share
// it; the logically expanded copy of the measurements gets its own. The
// default engine indexes pairs in ids.go instead.
type meshIndex struct {
	before, after map[pair]*TracePath
	// pairs is the after-pair universe sorted by (src, dst): the
	// deterministic iteration order of set building.
	pairs []pair
}

// buildIndex computes the measurement index: both per-pair maps and the
// sorted after-pair order.
func (m *Measurements) buildIndex() *meshIndex {
	idx := &meshIndex{
		before: make(map[pair]*TracePath, len(m.Before)),
		after:  make(map[pair]*TracePath, len(m.After)),
	}
	for _, p := range m.Before {
		idx.before[pair{p.SrcSensor, p.DstSensor}] = p
	}
	for _, p := range m.After {
		idx.after[pair{p.SrcSensor, p.DstSensor}] = p
	}
	idx.pairs = sortedPairs(idx.after)
	return idx
}

// validateIndexed is the reference engine's Validate over its prebuilt
// index.
func (m *Measurements) validateIndexed(idx *meshIndex) error {
	before := idx.before
	check := func(p *TracePath, mesh string) *ValidationError {
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
	for _, p := range m.Before {
		if err := check(p, "before"); err != nil {
			return err
		}
	}
	for _, p := range m.After {
		if err := check(p, "after"); err != nil {
			return err
		}
		if _, ok := before[pair{p.SrcSensor, p.DstSensor}]; !ok {
			return &ValidationError{Mesh: "after", Src: p.SrcSensor, Dst: p.DstSensor,
				Reason: "no before measurement"}
		}
	}
	return nil
}

func sortedPairs(m map[pair]*TracePath) []pair {
	out := make([]pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].dst < out[j].dst
	})
	return out
}

// expander is the reference engine's string form of the §3.1 expansion
// (expand.go); the default engine expands node IDs in ids.go. It rewrites
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

// mapUHs assigns AS tags to every unidentified hop of the measurements by
// querying Looking Glasses. For each maximal UH run bounded by identified
// hops in ASes A (before) and C (after), it queries, in path order, the
// Looking Glasses of the identified ASes on the path; the first available
// one whose AS path contains A followed by C determines the tag: the ASes
// strictly between them. Runs that cannot be aligned stay untagged.
func mapUHs(m *Measurements, lg LookingGlass) map[Node]asTag {
	tags := map[Node]asTag{}
	for _, paths := range [][]*TracePath{m.Before, m.After} {
		for _, p := range paths {
			mapUHsOnPath(p, lg, func(k int, tag asTag) { tags[p.Hops[k].Node] = tag })
		}
	}
	return tags
}

func makeEndpointKey(n Node, uh bool, tags map[Node]asTag) endpointKey {
	if !uh {
		return endpointKey{identified: n, ok: true}
	}
	return tagKey(tags[n])
}

// trimByWithdrawals returns the failure set of a failed path, reduced by
// the withdrawal rule of §3.3: when AS-X's border router At receives a
// withdrawal from neighbor From for the path's destination, the failed
// link must lie strictly beyond the At->From hop, so every link up to and
// including it is exonerated for this path.
//
// bp is the (possibly logically expanded) before-failure path; links is
// bp.Links(). The returned slice aliases links.
func trimByWithdrawals(bp *TracePath, links []Link, ri *RoutingInfo) []Link {
	if ri == nil || len(ri.Withdrawals) == 0 {
		return links
	}
	cut := 0
	for _, w := range ri.Withdrawals {
		if !containsInt(w.DstSensors, bp.DstSensor) {
			continue
		}
		atIdx := -1
		for i := range bp.Hops {
			switch bp.Hops[i].Node {
			case w.At:
				if atIdx == -1 {
					atIdx = i
				}
			case w.From:
				// Only trim when the path traverses At before From,
				// i.e. the withdrawal edge lies on this path in the
				// forwarding direction.
				if atIdx < 0 || i <= atIdx {
					continue
				}
				c := i
				// With logical expansion, the At->From edge appears as
				// At->From(tag)->From. The withdrawal says From offered
				// At no route — which is exactly what a failed logical
				// link From(tag)->From means, so that sub-link must stay
				// a suspect: cut at the logical node, not past it.
				if c > 0 && IsLogical(bp.Hops[c-1].Node) {
					c--
				}
				if c > cut {
					cut = c
				}
			}
		}
	}
	if cut >= len(links) {
		return nil
	}
	return links[cut:]
}
