package core

import (
	"math/bits"
	"slices"
	"sort"

	"netdiag/internal/pool"
)

// bitEngine is the default diagnosis pipeline. Nodes and sensor pairs get
// dense IDs while the measurements are read, the logical expansion and set
// building run over those IDs (ids.go), every link is a dense int32 ID
// keyed by its endpoint IDs, link→set incidence becomes sorted int32 rows
// (csr) tested against dense unexplained-set masks, and the greedy loop
// maintains incremental per-candidate scores instead of rescoring every
// candidate each round.
//
// Equivalence with the map reference engine (RunReference, in
// reference_test.go) is structural: every user-visible iteration
// (candidate scan, cluster pairs, hypothesis order) runs in the same
// sorted-Link order as the reference, scores are the same float
// expression over the same integer counts, and the delta updates below
// are exact (see DESIGN.md, "Bitset diagnosis core"). "X over IDs" below
// names the reference engine's X. The differential tests pin the wire bytes.
type bitEngine struct {
	e     *engine
	m     *Measurements
	mesh  *idMesh
	nodes *nodeTable
	links *linkTable

	all     bitset // before-path links: the diagnosis space
	working bitset
	cand    bitset

	// failLinks / rerLinks hold each constraint set as interned link IDs in
	// path order — the bitset analogue of obsSet.links.
	failLinks [][]int32
	rerLinks  [][]int32

	// failInc / rerInc transpose the sets: per link ID, the ascending
	// failure / reroute set indices containing that link. Rows are empty
	// for links in no set. pairInc is the per-link before-path pair
	// incidence, built only for ND-LG (the sole consumer, clustering rule
	// ii).
	failInc csr
	rerInc  csr
	pairInc csr

	// unexplF / unexplR mask the not-yet-explained set indices; the counts
	// are maintained alongside so the greedy termination check is O(1).
	unexplF, unexplR   bitset
	nUnexplF, nUnexplR int

	// extraCover extends a candidate's explanatory reach (physical parents'
	// logical children, Looking-Glass clusters), as interned IDs.
	extraCover map[int32][]int32

	// candOrder lists candidate link IDs sorted by Link — the deterministic
	// scan order shared by clustering and every greedy round. alive flags
	// positions not yet selected; candCount is the live total.
	candOrder []int32
	alive     []bool
	candCount int

	// coverF / coverR give each candidate position its full cover incidence
	// ({link} ∪ extraCover, as a sorted union). Candidates without
	// extraCover share the failInc/rerInc row — no per-candidate
	// allocation.
	coverF, coverR [][]int32
	// coveredByF / coveredByR transpose the covers: per set index, the
	// candidate positions covering it. Each (position, set) pair appears
	// exactly once, so the delta decrement in retireSets is exact.
	coveredByF, coveredByR csr
	// fCnt / rCnt are the incremental integer scores: how many unexplained
	// failure / reroute sets each candidate position currently covers.
	fCnt, rCnt []int

	// hyp collects the hypothesis link IDs in selection order.
	hyp []int32
}

func newBitEngine(e *engine) *bitEngine {
	return &bitEngine{e: e, extraCover: map[int32][]int32{}}
}

// run executes the pipeline over dense IDs: validate reads the
// measurements into pair and node IDs, expand rewrites the node arena with
// logical nodes, and the later phases work on link IDs.
func (b *bitEngine) run(m *Measurements) (*Result, error) {
	e := b.e
	b.m = m
	end := e.phase("validate")
	pairs, err := m.indexPairs()
	if err == nil {
		b.mesh = readMesh(m)
		b.nodes = b.mesh.nodes
	}
	end()
	if err != nil {
		return nil, err
	}
	if e.opts.LogicalLinks {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		end = e.phase("expand")
		b.mesh.expand(m, e.opts.PerPrefixLogical)
		end()
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	end = e.phase("build_sets")
	b.links = newLinkTable(b.nodes)
	b.buildSets(pairs)
	end()
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	end = e.phase("candidates")
	if e.opts.LG != nil {
		b.nodes.mapUHTags(m, e.opts.LG)
	}
	b.exonerateWithdrawalEdges()
	b.buildCandidates()
	b.addPhysParents()
	b.buildIncidence()
	b.applyIGPDowns()
	b.orderCandidates()
	if e.opts.LG != nil {
		b.buildClusters()
	}
	end()
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	end = e.phase("greedy")
	iters, err := b.greedy()
	end()
	if err != nil {
		return nil, err
	}
	end = e.phase("attribute")
	res := &Result{Iterations: iters, UnexplainedFailures: b.nUnexplF, Hypothesis: b.attribute()}
	end()
	return res, nil
}

// buildSets derives failure sets, reroute sets and working constraints
// over the pairs in (src, dst) order, interning every link on first sight.
func (b *bitEngine) buildSets(pairs []pairRef) {
	e, x, m := b.e, b.mesh, b.m
	lgMode := e.opts.LG != nil
	wds := b.withdrawals()
	// Every pair's before-path link IDs live in one arena: the failure sets
	// keep suffixes of them.
	n := 0
	for _, pr := range pairs {
		if s := x.before[pr.b]; s.end-s.off > 1 {
			n += int(s.end - s.off - 1)
		}
	}
	arena := make([]int32, 0, n)
	var aIDs []int32
	var pairLinks [][]int32 // per pair, its before-path link IDs (ND-LG)
	for _, pr := range pairs {
		bp, ap := m.Before[pr.b], m.After[pr.a]
		bHops, aHops := x.path(x.before[pr.b]), x.path(x.after[pr.a])
		off := len(arena)
		arena = appendLinkIDs(arena, b.links, bHops)
		bIDs := arena[off:len(arena):len(arena)]
		for _, id := range bIDs {
			setGrow(&b.all, id)
		}
		if lgMode {
			pairLinks = append(pairLinks, bIDs)
		}
		if !bp.OK {
			continue // no pre-failure baseline for this pair
		}
		switch {
		case ap.OK && e.opts.UseReroutes:
			aIDs = appendLinkIDs(aIDs[:0], b.links, aHops)
			for _, id := range aIDs {
				setGrow(&b.working, id)
			}
			if !equivalentHops(bHops, aHops) {
				if diff := idsNotIn(bIDs, aIDs); len(diff) > 0 {
					b.rerLinks = append(b.rerLinks, diff)
				}
			}
		case ap.OK:
			// Tomo's view: only the pre-failure route is known, so every
			// link of the old path counts as working (the §2.5 limitation).
			for _, id := range bIDs {
				setGrow(&b.working, id)
			}
		default:
			if e.opts.UsePartialTraces {
				aIDs = appendLinkIDs(aIDs[:0], b.links, aHops)
				for _, id := range aIDs {
					setGrow(&b.working, id)
				}
			}
			cut := b.withdrawalCut(wds, bp.DstSensor, bHops)
			b.failLinks = append(b.failLinks, bIDs[min(cut, len(bIDs)):])
		}
	}
	b.unexplF, b.nUnexplF = fullMask(len(b.failLinks))
	b.unexplR, b.nUnexplR = fullMask(len(b.rerLinks))
	if lgMode {
		b.pairInc = transpose(pairLinks, b.links.size())
	}
}

// equivalentHops is pathsEquivalent over node IDs: same length, identified
// hops equal, unidentified positions aligned.
func equivalentHops(a, b []idHop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].uh != b[i].uh || !a[i].uh && a[i].node != b[i].node {
			return false
		}
	}
	return true
}

// idsNotIn is linksNotIn over link IDs. Paths are about ten hops, so a
// scan beats building a set.
func idsNotIn(a, b []int32) []int32 {
	var out []int32
	for _, id := range a {
		if !slices.Contains(b, id) {
			out = append(out, id)
		}
	}
	return out
}

// idWithdrawal is a Withdrawal with its routers resolved to node IDs.
type idWithdrawal struct {
	at, from int32
	dsts     []int
}

// withdrawals resolves the observed withdrawals. One naming a router no
// path visits can trim nothing, so it is dropped.
func (b *bitEngine) withdrawals() []idWithdrawal {
	ri := b.e.opts.Routing
	if ri == nil {
		return nil
	}
	var out []idWithdrawal
	for _, w := range ri.Withdrawals {
		at, ok := b.nodes.lookup(w.At)
		from, fok := b.nodes.lookup(w.From)
		if ok && fok {
			out = append(out, idWithdrawal{at: at, from: from, dsts: w.DstSensors})
		}
	}
	return out
}

// withdrawalCut is trimByWithdrawals over node IDs: the number of leading
// links of a failed before path that the withdrawals exonerate.
func (b *bitEngine) withdrawalCut(wds []idWithdrawal, dst int, hops []idHop) int {
	cut := 0
	for _, w := range wds {
		if !containsInt(w.dsts, dst) {
			continue
		}
		atIdx := -1
		for i, h := range hops {
			switch h.node {
			case w.at:
				if atIdx == -1 {
					atIdx = i
				}
			case w.from:
				if atIdx < 0 || i <= atIdx {
					continue
				}
				c := i
				// A logical node before From is From(tag): cut at it, so the
				// possibly misconfigured sub-link From(tag)->From stays.
				if c > 0 && b.nodes.isLogical(hops[c-1].node) {
					c--
				}
				cut = max(cut, c)
			}
		}
	}
	return cut
}

// fullMask returns a bitset with bits 0..n-1 set, and n.
func fullMask(n int) (bitset, int) {
	m := newBitset(n)
	for i := 0; i < n; i++ {
		m[i>>6] |= 1 << (uint(i) & 63)
	}
	return m, n
}

func (b *bitEngine) exonerateWithdrawalEdges() {
	for _, w := range b.withdrawals() {
		setGrow(&b.working, b.links.id(w.at, w.from))
		setGrow(&b.working, b.links.id(w.from, w.at))
	}
}

func (b *bitEngine) buildCandidates() {
	e := b.e
	uh := b.nodes.uh
	add := func(sets [][]int32) {
		for _, ids := range sets {
			for _, id := range ids {
				if b.working.has(id) {
					continue
				}
				if !e.opts.KeepUnidentified {
					l := b.links.ends[id]
					if uh[l[0]] || uh[l[1]] {
						continue
					}
				}
				setGrow(&b.cand, id)
			}
		}
	}
	add(b.failLinks)
	add(b.rerLinks)
}

// addPhysParents is addPhysParents over IDs. A physical link's
// children are the links u->v(W)@u and v(W)@u->v of its logical nodes.
// Parents go in order of their first logical node: no order is visible,
// since extra-cover is OR-folded and link IDs never reach the output. A
// child the link table has never seen was on no path and no constraint, so
// it is neither working nor a candidate.
func (b *bitEngine) addPhysParents() {
	if !b.e.opts.LogicalLinks {
		return
	}
	t := b.nodes
	parentOf := map[[2]int32]int32{}
	var parents [][2]int32
	var kids [][]int32
	for k, key := range t.logical {
		uv := [2]int32{key.u, key.v}
		p, ok := parentOf[uv]
		if !ok {
			p = int32(len(parents))
			parentOf[uv] = p
			parents = append(parents, uv)
			kids = append(kids, nil)
		}
		kids[p] = append(kids[p], t.nPhys+int32(k))
	}
	for p, uv := range parents {
		if pid, ok := b.links.lookup(uv[0], uv[1]); ok && b.working.has(pid) {
			continue
		}
		exonerated := false
		var covered []int32
	scan:
		for _, ln := range kids[p] {
			for _, c := range [2][2]int32{{uv[0], ln}, {ln, uv[1]}} {
				cid, ok := b.links.lookup(c[0], c[1])
				if !ok {
					continue
				}
				if b.working.has(cid) {
					exonerated = true
					break scan
				}
				if b.cand.has(cid) {
					covered = append(covered, cid)
				}
			}
		}
		if exonerated || len(covered) == 0 {
			continue
		}
		pid := b.links.id(uv[0], uv[1])
		setGrow(&b.cand, pid)
		b.extraCover[pid] = append(b.extraCover[pid], covered...)
	}
}

// buildIncidence transposes the constraint sets into per-link incidence
// rows. It runs after addPhysParents — the last point where new links are
// interned — so the row tables cover the final ID universe. A path that
// crosses a link twice puts it in its set twice; the transpose records
// the set once, so a row's length is the link's set count.
func (b *bitEngine) buildIncidence() {
	n := b.links.size()
	b.failInc = transpose(b.failLinks, n)
	b.rerInc = transpose(b.rerLinks, n)
}

// applyIGPDowns adds AS-X's directly observed failed links to the
// hypothesis and retires the sets containing them (the link itself only —
// extraCover does not apply, matching the reference engine).
func (b *bitEngine) applyIGPDowns() {
	e := b.e
	if e.opts.Routing == nil {
		return
	}
	for _, l := range e.opts.Routing.IGPDownLinks {
		id, ok := b.lookupLink(l)
		if !ok || !b.all.has(id) {
			continue
		}
		b.hyp = append(b.hyp, id)
		b.cand.clear(id)
		retireMask(b.failInc.row(id), b.unexplF, &b.nUnexplF)
		retireMask(b.rerInc.row(id), b.unexplR, &b.nUnexplR)
	}
}

// lookupLink resolves a link named in the routing inputs.
func (b *bitEngine) lookupLink(l Link) (int32, bool) {
	from, ok := b.nodes.lookup(l.From)
	to, tok := b.nodes.lookup(l.To)
	if !ok || !tok {
		return 0, false
	}
	return b.links.lookup(from, to)
}

// link returns the names of link id's endpoints.
func (b *bitEngine) link(id int32) Link {
	l := b.links.ends[id]
	return Link{From: b.nodes.name(l[0]), To: b.nodes.name(l[1])}
}

// retireMask clears inc's sets from unexpl, decrementing the live count.
func retireMask(inc []int32, unexpl bitset, n *int) {
	for _, s := range inc {
		if unexpl.has(s) {
			unexpl.clear(s)
			*n--
		}
	}
}

// orderCandidates freezes the candidate scan order: link IDs sorted by
// Link, exactly the reference engine's cand.sorted(). Greedy removals only
// flip alive flags, so the surviving order equals a fresh sort each round.
func (b *bitEngine) orderCandidates() {
	var ids []int32
	for w, v := range b.cand {
		for v != 0 {
			t := bits.TrailingZeros64(v)
			v &= v - 1
			ids = append(ids, int32(w*wordBits+t))
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		li, lj := b.link(ids[i]), b.link(ids[j])
		if li.From != lj.From {
			return li.From < lj.From
		}
		return li.To < lj.To
	})
	b.candOrder = ids
	b.alive = make([]bool, len(ids))
	for i := range b.alive {
		b.alive[i] = true
	}
	b.candCount = len(ids)
}

// buildClusters groups unidentified candidate links under the §3.4 rules;
// rule (ii) — never on the same before path — is one merge walk over two
// sorted pair-incidence rows instead of a per-pair map probe.
func (b *bitEngine) buildClusters() {
	t := b.nodes
	var unid []int32
	for _, id := range b.candOrder {
		l := b.links.ends[id]
		if t.uh[l[0]] || t.uh[l[1]] {
			unid = append(unid, id)
		}
	}
	keys := make([][2]endpointKey, len(unid))
	fcounts := make([]int, len(unid))
	for i, id := range unid {
		l := b.links.ends[id]
		keys[i] = [2]endpointKey{t.endpointKey(l[0]), t.endpointKey(l[1])}
		fcounts[i] = len(b.failInc.row(id))
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
			if intersects(b.pairInc.row(unid[i]), b.pairInc.row(unid[j])) {
				continue // rule (ii): never on the same path
			}
			b.extraCover[unid[i]] = append(b.extraCover[unid[i]], unid[j])
		}
	}
}

// prepareCover materializes each candidate's cover incidence and the
// set→candidates transpose driving the incremental score updates. A
// candidate without extraCover shares its incidence row — the
// per-candidate cover union costs nothing (this replaces the reference
// engine's per-candidate-per-iteration append in coverCounts).
func (b *bitEngine) prepareCover() {
	n := len(b.candOrder)
	b.coverF = make([][]int32, n)
	b.coverR = make([][]int32, n)
	for pos, id := range b.candOrder {
		ex := b.extraCover[id]
		b.coverF[pos] = coverRow(b.failInc, id, ex)
		b.coverR[pos] = coverRow(b.rerInc, id, ex)
	}
	b.coveredByF = transpose(b.coverF, len(b.failLinks))
	b.coveredByR = transpose(b.coverR, len(b.rerLinks))
}

// coverRow returns the sorted union of inc's rows for id and ex: id's own
// row when ex is empty.
func coverRow(inc csr, id int32, ex []int32) []int32 {
	row := inc.row(id)
	if len(ex) == 0 {
		return row
	}
	u := slices.Clone(row)
	for _, c := range ex {
		u = append(u, inc.row(c)...)
	}
	slices.Sort(u)
	return slices.Compact(u)
}

// initScores computes the starting integer scores — how many unexplained
// failure / reroute sets each candidate covers — fanned out over the
// configured workers. Each worker writes only its own slots, so the counts
// (and therefore the hypothesis) are identical at any parallelism.
func (b *bitEngine) initScores() {
	b.fCnt = make([]int, len(b.candOrder))
	b.rCnt = make([]int, len(b.candOrder))
	_ = pool.ForEachM(b.e.ctx, b.e.workers, len(b.candOrder), func(pos int) error {
		b.fCnt[pos] = countIn(b.coverF[pos], b.unexplF)
		b.rCnt[pos] = countIn(b.coverR[pos], b.unexplR)
		return nil
	}, b.e.poolM)
}

// greedy is the weighted greedy minimum-hitting-set of Algorithm 1 over
// incremental scores: each round scans the live candidates (sorted-Link
// order), selects every maximum-score candidate, retires the newly
// explained sets, and decrements the scores of exactly the candidates
// covering those sets. The delta equals a full rescore: a candidate's
// count changes only when a set it covers flips to explained, and each
// such (candidate, set) pair is visited exactly once via coveredBy.
func (b *bitEngine) greedy() (int, error) {
	e := b.e
	b.prepareCover()
	b.initScores()
	fw, rw := e.opts.FailureWeight, e.opts.RerouteWeight
	bestBuf := make([]int32, len(b.candOrder))
	scratchF := newBitset(len(b.failLinks))
	scratchR := newBitset(len(b.rerLinks))
	iters := 0
	for {
		if err := e.ctx.Err(); err != nil {
			return iters, err
		}
		if b.nUnexplF+b.nUnexplR == 0 || b.candCount == 0 {
			return iters, nil
		}
		iters++
		endIter := e.phaseIter("greedy_iter", iters)
		best, k := scanBest(b.candOrder, b.alive, b.fCnt, b.rCnt, fw, rw, bestBuf)
		if best == 0 {
			endIter()
			return iters, nil // remaining sets are unexplainable
		}
		for i := 0; i < k; i++ {
			pos := bestBuf[i]
			b.hyp = append(b.hyp, b.candOrder[pos])
			b.alive[pos] = false
			b.candCount--
			accumDelta(b.coverF[pos], b.unexplF, scratchF)
			accumDelta(b.coverR[pos], b.unexplR, scratchR)
		}
		b.nUnexplF -= retireSets(scratchF, b.unexplF, b.coveredByF, b.fCnt)
		b.nUnexplR -= retireSets(scratchR, b.unexplR, b.coveredByR, b.rCnt)
		endIter()
	}
}

// scanBest finds the maximum score over live candidates and writes every
// position attaining it into bestBuf (in scan order), returning the score
// and the count. The comparison sequence matches the reference engine's
// scan exactly, including the best > 0 tie rule.
//
//ndlint:hotpath
func scanBest(order []int32, alive []bool, fCnt, rCnt []int, fw, rw float64, bestBuf []int32) (float64, int) {
	best := 0.0
	k := 0
	for pos := range order {
		if !alive[pos] {
			continue
		}
		s := fw*float64(fCnt[pos]) + rw*float64(rCnt[pos])
		switch {
		case s > best:
			best = s
			bestBuf[0] = int32(pos)
			k = 1
		case s == best && best > 0:
			bestBuf[k] = int32(pos)
			k++
		}
	}
	return best, k
}

// countIn returns how many of row's sets are in mask — the scoring
// kernel: a candidate's cover row against the unexplained-set mask.
//
//ndlint:hotpath
func countIn(row []int32, mask bitset) int {
	n := 0
	for _, s := range row {
		if mask.has(s) {
			n++
		}
	}
	return n
}

// accumDelta sets the still-unexplained sets of cover in scratch: the sets
// this selection newly explains.
//
//ndlint:hotpath
func accumDelta(cover []int32, unexpl, scratch bitset) {
	for _, s := range cover {
		if unexpl.has(s) {
			scratch.set(s)
		}
	}
}

// retireSets consumes the delta mask: clears those sets from unexpl (and
// from delta, re-zeroing the scratch for the next round), and decrements
// the score of every candidate covering a retired set. Returns the number
// of sets retired.
//
//ndlint:hotpath
func retireSets(delta, unexpl bitset, coveredBy csr, cnt []int) int {
	removed := 0
	for w := range delta {
		d := delta[w]
		if d == 0 {
			continue
		}
		delta[w] = 0
		unexpl[w] &^= d
		removed += bits.OnesCount64(d)
		base := w * wordBits
		for d != 0 {
			t := bits.TrailingZeros64(d)
			d &= d - 1
			for _, pos := range coveredBy.row(int32(base + t)) {
				cnt[pos]--
			}
		}
	}
	return removed
}

// attribute builds the reported hypothesis entries with physical and AS
// attribution, sorted by link: attribute over IDs. Only here and in the
// candidate order do logical nodes get their names.
func (b *bitEngine) attribute() []HypLink {
	t := b.nodes
	seen := newBitset(b.links.size())
	out := make([]HypLink, 0, len(b.hyp))
	for _, id := range b.hyp {
		if seen.has(id) {
			continue
		}
		seen.set(id)
		l := b.links.ends[id]
		pu, pv := t.physical(l[0], l[1])
		h := HypLink{Link: b.link(id)}
		if !t.uh[pu] && !t.uh[pv] {
			h.Phys = Link{From: t.name(pu), To: t.name(pv)}
			h.PhysKnown = true
		}
		h.ASes = t.linkASes(pu, pv)
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
