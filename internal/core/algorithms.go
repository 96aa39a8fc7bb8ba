package core

import (
	"context"
	"log/slog"
	"sort"

	"netdiag/internal/pool"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// Options selects the diagnosis features. The zero value is the plain
// multi-AS Boolean tomography algorithm (Tomo, paper §2.4); the named
// constructors below configure the paper's algorithm variants.
type Options struct {
	// LogicalLinks enables the per-neighbor logical-link expansion of
	// §3.1, which lets the algorithm localize BGP export
	// misconfigurations ("partial" link failures).
	LogicalLinks bool
	// UseReroutes enables the reroute sets of §3.2: post-failure paths
	// define the working constraints, and rerouted-but-working paths
	// contribute score to the links they abandoned.
	UseReroutes bool
	// FailureWeight and RerouteWeight are the score weights a and b of
	// §3.2. Zero means 1 (the paper's setting).
	FailureWeight, RerouteWeight float64
	// Routing supplies AS-X's control-plane observations (§3.3).
	Routing *RoutingInfo
	// LG enables Looking-Glass UH mapping and link clustering (§3.4).
	LG LookingGlass
	// KeepUnidentified keeps links with unidentified endpoints in the
	// candidate set. ND-LG sets this; ND-bgpigp "simply ignores any
	// unidentified link" (§5.4).
	KeepUnidentified bool
	// UsePartialTraces is an extension beyond the paper: hops that still
	// responded on a failed post-failure traceroute exonerate the links
	// they traversed. Off by default; the ablation bench measures it.
	UsePartialTraces bool
	// PerPrefixLogical switches the logical-link expansion to per-prefix
	// granularity — the finest (and largest) graph §3.1 discusses before
	// settling on per-neighbor. Only meaningful with LogicalLinks; kept
	// for the scalability study.
	PerPrefixLogical bool
	// Parallelism bounds the worker count for candidate scoring inside the
	// greedy cover loop. <= 1 runs sequentially; the hypothesis set is
	// identical at any setting because scores land in per-candidate slots
	// and selection scans them in deterministic order.
	Parallelism int
	// Telemetry receives the run's metrics: the "diagnose.runs" counter,
	// per-phase latency histograms ("diagnose.phase.<name>_ns") and the
	// pool metrics of the candidate-scoring fan-out. Setting it (or Logger)
	// also populates Result.Telemetry with the run's phase spans. Nil (the
	// default) disables all of it; telemetry never changes the hypothesis.
	Telemetry *telemetry.Registry
	// Logger, when non-nil, receives a debug-level record per phase and a
	// summary per run, and enables Result.Telemetry like Telemetry does.
	Logger *slog.Logger
}

// Tomo runs the multi-AS Boolean tomography baseline of §2.
func Tomo(m *Measurements) (*Result, error) { return Run(m, Options{}) }

// NDEdge runs NetDiagnoser with logical links and reroute information
// (§3.1–3.2) — the variant deployable without ISP cooperation.
func NDEdge(m *Measurements) (*Result, error) {
	return Run(m, Options{LogicalLinks: true, UseReroutes: true})
}

// NDBgpIgp runs ND-edge augmented with AS-X's IGP link-down events and BGP
// withdrawals (§3.3).
func NDBgpIgp(m *Measurements, ri *RoutingInfo) (*Result, error) {
	return Run(m, Options{LogicalLinks: true, UseReroutes: true, Routing: ri})
}

// NDLG runs the full NetDiagnoser with Looking-Glass support for
// traceroute-blocking ASes (§3.4).
func NDLG(m *Measurements, ri *RoutingInfo, lg LookingGlass) (*Result, error) {
	return Run(m, Options{
		LogicalLinks: true, UseReroutes: true,
		Routing: ri, LG: lg, KeepUnidentified: true,
	})
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

// engine carries the state of one diagnosis run shared by both engine
// implementations; the fields from exp on belong to the map-based
// reference path (RunReference), which runMap initializes. The bitset
// path keeps its own interned state in bitEngine.
type engine struct {
	ctx     context.Context
	workers int
	opts    Options

	// trace is non-nil only when the run is observed (Options.Telemetry or
	// Options.Logger); every phase helper is a no-op otherwise.
	trace *telemetry.Trace
	poolM *pool.Metrics

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

// Run executes the configured diagnosis on the measurements.
func Run(m *Measurements, opts Options) (*Result, error) {
	return RunCtx(context.Background(), m, opts)
}

// RunCtx executes the configured diagnosis on the default (bitset) engine,
// honoring ctx: cancellation is checked on entry, between pipeline phases
// and on every greedy iteration, so a long run aborts promptly with
// ctx.Err(). The result is identical to Run for an uncancelled context.
func RunCtx(ctx context.Context, m *Measurements, opts Options) (*Result, error) {
	return runWith(ctx, m, opts, func(e *engine, m *Measurements) (*Result, error) {
		return newBitEngine(e).run(m)
	})
}

// RunReference runs the original map-based engine: per-link Go maps, the
// string front half and full per-iteration rescoring. It is the readable
// oracle the default engine is differentially tested against, and the map
// side of the diagnose benchmarks. Option defaults, phase spans and
// telemetry match RunCtx, and so does the hypothesis, byte for byte on
// the wire.
func RunReference(ctx context.Context, m *Measurements, opts Options) (*Result, error) {
	return runWith(ctx, m, opts, (*engine).runMap)
}

// runWith applies the option defaults, sets up the run's telemetry and
// hands the measurements to one engine implementation.
func runWith(ctx context.Context, m *Measurements, opts Options,
	run func(*engine, *Measurements) (*Result, error)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.FailureWeight == 0 {
		opts.FailureWeight = 1
	}
	if opts.RerouteWeight == 0 {
		opts.RerouteWeight = 1
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1 // zero Options stays sequential for compatibility
	}
	e := &engine{ctx: ctx, workers: workers, opts: opts}
	if opts.Telemetry != nil || opts.Logger != nil {
		e.trace = telemetry.NewTrace()
		if opts.Telemetry != nil {
			opts.Telemetry.Counter("diagnose.runs").Inc()
			e.poolM = pool.NewMetrics(opts.Telemetry)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res, err := run(e, m)
	if err != nil {
		return nil, err
	}
	res.Telemetry = e.trace.Spans()
	if opts.Logger != nil {
		opts.Logger.Debug("diagnose done",
			"hypothesis", len(res.Hypothesis),
			"iterations", res.Iterations,
			"unexplained", res.UnexplainedFailures)
	}
	return res, nil
}

// runMap is the map-based reference pipeline: the string front half
// (per-pair maps, the string expander over a copy of the measurements,
// node maps), set building, candidate construction and the full-rescore
// greedy loop over linkSet maps.
func (e *engine) runMap(m *Measurements) (*Result, error) {
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
		idx = idx.rebind(work)
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

var noopEnd = func() {}

// phase opens a named span of the run; the returned func closes it, feeds
// the "diagnose.phase.<name>_ns" histogram and logs the phase at debug
// level. On an unobserved run it does nothing and never reads the clock.
func (e *engine) phase(name string) func() { return e.phaseIter(name, 0) }

// phaseIter is phase for one iteration of a repeated phase (iter >= 1).
func (e *engine) phaseIter(name string, iter int) func() {
	if e.trace == nil {
		return noopEnd
	}
	endSpan := e.trace.StartIteration(name, iter)
	start := telemetry.Now()
	return func() {
		endSpan()
		d := telemetry.Since(start)
		if e.opts.Telemetry != nil {
			e.opts.Telemetry.Histogram("diagnose.phase."+name+"_ns", telemetry.DurationBuckets).
				Observe(int64(d))
		}
		if e.opts.Logger != nil {
			if iter > 0 {
				e.opts.Logger.Debug("diagnose phase", "phase", name, "iteration", iter, "duration", d)
			} else {
				e.opts.Logger.Debug("diagnose phase", "phase", name, "duration", d)
			}
		}
	}
}

func (e *engine) collectNodes(m *Measurements) {
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
func (e *engine) buildSets(idx *meshIndex) {
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
func (e *engine) exonerateWithdrawalEdges() {
	if e.opts.Routing == nil {
		return
	}
	for _, w := range e.opts.Routing.Withdrawals {
		e.working.add(Link{From: w.At, To: w.From})
		e.working.add(Link{From: w.From, To: w.At})
	}
}

func (e *engine) buildCandidates() {
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
func (e *engine) applyIGPDowns() {
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
func (e *engine) explain(l Link) {
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
func (e *engine) addPhysParents() {
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
func (e *engine) buildClusters() {
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

//ndlint:hotpath
func sharesPath(a, b map[pair]bool) bool {
	for p := range a {
		if b[p] {
			return true
		}
	}
	return false
}

// greedy runs the weighted greedy minimum-hitting-set of Algorithm 1,
// extended with reroute sets (§3.2) and link clusters (§3.4). It returns
// the number of iterations. Candidate scores are computed concurrently
// over e.workers goroutines (each score reads only the sets frozen for
// this iteration and writes its own slot), then scanned in sorted-link
// order, so the hypothesis is identical at any parallelism. Cancellation
// is checked once per iteration.
func (e *engine) greedy() (int, error) {
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

		cands := e.cand.sorted()
		scores := make([]float64, len(cands))
		_ = pool.ForEachM(e.ctx, e.workers, len(cands), func(i int) error {
			f, r := e.coverCounts(cands[i])
			scores[i] = e.opts.FailureWeight*float64(f) + e.opts.RerouteWeight*float64(r)
			return nil
		}, e.poolM)
		best := 0.0
		var bestLinks []Link
		for i, l := range cands {
			switch {
			case scores[i] > best:
				best = scores[i]
				bestLinks = bestLinks[:0]
				bestLinks = append(bestLinks, l)
			case scores[i] == best && best > 0:
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
//ndlint:hotpath
func (e *engine) coverCounts(l Link) (fails, reroutes int) {
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
func (e *engine) attribute() []HypLink {
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

func (e *engine) linkASes(l Link) []topology.ASN {
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
