package core

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"netdiag/internal/topology"
)

// ones counts the set bits of b, tolerating its spare tail words.
func ones(b bitset) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestBitsetWordBoundaries exercises set/clear/has exactly at the 64-bit
// word edges — universes of 63, 64 and 65 bits, and indices 62..65 —
// where a shift or word-count bug would hide.
func TestBitsetWordBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65} {
		b := newBitset(n)
		wantWords := (n + 63) / 64
		if len(b) != wantWords {
			t.Fatalf("newBitset(%d): %d words, want %d", n, len(b), wantWords)
		}
		for i := 0; i < n; i++ {
			b.set(int32(i))
		}
		if got := ones(b); got != n {
			t.Fatalf("bits after filling %d: %d", n, got)
		}
		for i := 0; i < n; i++ {
			if !b.has(int32(i)) {
				t.Fatalf("n=%d: bit %d missing", n, i)
			}
		}
		// Bits beyond the allocated words read as absent and clear as no-ops.
		if b.has(int32(wantWords * 64)) {
			t.Fatalf("n=%d: phantom bit beyond words", n)
		}
		b.clear(int32(wantWords*64 + 7))
		for _, i := range []int{0, n/2 - 1, n - 1} {
			b.clear(int32(i))
			if b.has(int32(i)) {
				t.Fatalf("n=%d: bit %d survived clear", n, i)
			}
		}
		if got := ones(b); got != n-3 {
			t.Fatalf("bits after 3 clears: %d, want %d", got, n-3)
		}
	}
}

// TestBitsetSetGrow checks the growth write path: bits set before a grow
// survive it, and reads beyond the grown words stay absent.
func TestBitsetSetGrow(t *testing.T) {
	var b bitset
	grown := []int32{0, 63, 64, 65, 200, 1023}
	for k, i := range grown {
		setGrow(&b, i)
		for _, j := range grown[:k+1] {
			if !b.has(j) {
				t.Fatalf("bit %d missing after setGrow(%d)", j, i)
			}
		}
	}
	if got := ones(b); got != len(grown) {
		t.Fatalf("%d bits, want %d", got, len(grown))
	}
	if b.has(int32(len(b) * wordBits)) {
		t.Fatalf("phantom bit beyond the grown words")
	}
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestBitsetAgainstMapModel drives the set kernels against a
// map[int32]bool reference model over random densities and mismatched
// universes: bitset membership, countIn (a sorted row against a mask),
// and intersects over two sorted rows.
func TestBitsetAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 200; trial++ {
		na := 1 + rng.Intn(200)
		nb := 1 + rng.Intn(200)
		ma, mb := map[int32]bool{}, map[int32]bool{}
		// Densities from empty to full, so the no-overlap case is common.
		da, db := rng.Intn(4), rng.Intn(4)
		for i := 0; i < na; i++ {
			if rng.Intn(4) < da {
				ma[int32(i)] = true
			}
		}
		for i := 0; i < nb; i++ {
			if rng.Intn(4) < db {
				mb[int32(i)] = true
			}
		}
		a, b := sortedKeys(ma), sortedKeys(mb)
		mask := newBitset(nb)
		for _, i := range b {
			mask.set(i)
		}
		for i := int32(0); i < int32(max(na, nb))+wordBits; i++ {
			if mask.has(i) != mb[i] {
				t.Fatalf("trial %d: has(%d)=%v, model %v", trial, i, mask.has(i), mb[i])
			}
		}
		wantBoth := 0
		for i := range ma {
			if mb[i] {
				wantBoth++
			}
		}
		if got := countIn(a, mask); got != wantBoth {
			t.Fatalf("trial %d: countIn=%d want %d", trial, got, wantBoth)
		}
		if got := intersects(a, b); got != (wantBoth > 0) {
			t.Fatalf("trial %d: intersects=%v want %v", trial, got, wantBoth > 0)
		}
		if got := intersects(b, a); got != (wantBoth > 0) {
			t.Fatalf("trial %d: intersects (swapped)=%v want %v", trial, got, wantBoth > 0)
		}
	}
	if intersects(nil, []int32{1}) || intersects([]int32{1}, nil) || intersects(nil, nil) {
		t.Fatal("an empty list intersects nothing")
	}
}

// TestFullMask checks the unexplained-mask constructor at word edges.
func TestFullMask(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		m, cnt := fullMask(n)
		if cnt != n || ones(m) != n {
			t.Fatalf("fullMask(%d): cnt=%d bits=%d", n, cnt, ones(m))
		}
		if n > 0 && !m.has(int32(n-1)) {
			t.Fatalf("fullMask(%d): top bit missing", n)
		}
		if m.has(int32(n)) {
			t.Fatalf("fullMask(%d): bit %d should be clear", n, n)
		}
	}
}

// TestTransposeCover checks the counting-sort transpose behind every
// incidence table against a map model: random rows, including empty ones
// and rows that repeat an ID (a looped path), must invert to ascending,
// duplicate-free columns, and rows beyond the table must read as empty.
func TestTransposeCover(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(70)
		rows := make([][]int32, rng.Intn(12))
		model := map[int32]map[int32]bool{}
		for s := range rows {
			if n == 0 || rng.Intn(5) == 0 {
				continue // an empty set
			}
			for k := rng.Intn(10); k >= 0; k-- {
				c := int32(rng.Intn(n))
				rows[s] = append(rows[s], c)
				if rng.Intn(3) == 0 {
					rows[s] = append(rows[s], c) // a repeat within the set
				}
				if model[c] == nil {
					model[c] = map[int32]bool{}
				}
				model[c][int32(s)] = true
			}
			rng.Shuffle(len(rows[s]), func(i, j int) { rows[s][i], rows[s][j] = rows[s][j], rows[s][i] })
		}
		got := transpose(rows, n)
		total := 0
		for c := int32(0); c < int32(n); c++ {
			want := sortedKeys(model[c])
			if row := got.row(c); !slices.Equal(row, want) {
				t.Fatalf("trial %d: column %d = %v, want %v (rows %v)", trial, c, row, want, rows)
			}
			total += len(want)
		}
		if len(got.arena) != total {
			t.Fatalf("trial %d: arena holds %d entries, want %d", trial, len(got.arena), total)
		}
		for _, c := range []int32{int32(n), int32(n) + 1, 1 << 20} {
			if row := got.row(c); len(row) != 0 {
				t.Fatalf("trial %d: row %d beyond a %d-row table = %v", trial, c, n, row)
			}
		}
	}
	// A row is capped: appending to it cannot overwrite the next row.
	tab := transpose([][]int32{{0, 1}, {1}}, 2)
	_ = append(tab.row(0), 99)
	if !slices.Equal(tab.row(1), []int32{0, 1}) {
		t.Fatalf("append to row 0 clobbered row 1: %v", tab.row(1))
	}
	var empty csr
	if len(empty.row(0)) != 0 {
		t.Fatal("the zero table has rows")
	}
}

// TestLinkInterner checks dense link ID assignment by (from, to) node ID,
// for map-keyed physical links and slot-keyed logical ones, and
// lookup-miss semantics.
func TestLinkInterner(t *testing.T) {
	m := &Measurements{NumSensors: 2, Before: []*TracePath{tp(0, 1, true, "a@1", "b@1", "c@2")}}
	x := readMesh(m)
	x.expand(m, false)
	a, b, c, ln := int32(0), int32(1), int32(2), int32(3) // ln is c(2)@b
	if x.nodes.size() != 4 || x.nodes.name(ln) != "c(2)@b" {
		t.Fatalf("nodes %v", x.nodes.names)
	}
	in := newLinkTable(x.nodes)
	for want, l := range [][2]int32{{a, b}, {b, ln}, {ln, c}} {
		if id := in.id(l[0], l[1]); id != int32(want) {
			t.Fatalf("id%v = %d, want %d", l, id, want)
		}
	}
	for want, l := range [][2]int32{{a, b}, {b, ln}, {ln, c}} {
		if id, ok := in.lookup(l[0], l[1]); !ok || id != int32(want) {
			t.Fatalf("lookup%v = %d, %v", l, id, ok)
		}
	}
	for _, l := range [][2]int32{{b, a}, {ln, b}, {c, ln}, {b, c}} {
		if _, ok := in.lookup(l[0], l[1]); ok {
			t.Fatalf("lookup%v invented an id", l)
		}
	}
	if id := in.id(a, ln); id != 3 || in.size() != 4 || in.ends[3] != [2]int32{a, ln} {
		t.Fatalf("off-pattern link a->ln: id %d, table %v", id, in.ends)
	}
}

// TestEngineEquivalenceSynthetic is the quick differential: the bitset
// and map engines must render byte-identical wire output on the synthetic
// benchmark meshes across variants and parallelism. The cross-variant
// harness over the paper topologies is coreequiv_test.go.
func TestEngineEquivalenceSynthetic(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 40} {
		m := synthMeasurements(8, 6, seed)
		for _, opts := range []Options{
			{},
			{LogicalLinks: true, UseReroutes: true},
			{LogicalLinks: true, UseReroutes: true, UsePartialTraces: true},
			{LogicalLinks: true, UseReroutes: true, PerPrefixLogical: true},
		} {
			for _, par := range []int{1, 8} {
				opts.Parallelism = par
				if err := checkEngines(t, fmt.Sprintf("seed %d opts %+v", seed, opts), m, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestLoopedPathEquivalence pins the dedupe of the incidence transpose. A
// failed and a rerouted before path each cross b->c twice (hops b c b c),
// and a second failed path crosses c->d twice, so the built constraint
// sets repeat link IDs. The reference engine counts a set once per link;
// an incidence row that kept the repeat would double the link's score and
// change the greedy picks. Tomo, ND-edge and ND-LG must match RunReference
// byte for byte at parallelism 1 and 8.
func TestLoopedPathEquivalence(t *testing.T) {
	m := &Measurements{
		NumSensors: 4,
		Before: []*TracePath{
			tp(0, 1, true, "s0@10", "x@10", "b@20", "c@20", "b@20", "c@20", "z@30", "s1@30"),
			tp(0, 2, true, "s0@10", "x@10", "b@20", "c@20", "b@20", "c@20", "w@30", "s2@30"),
			tp(1, 0, true, "s1@30", "z@30", "c@20", "d@20", "c@20", "d@20", "x@10", "s0@10"),
			tp(3, 1, true, "s3@10", "x@10", "*u1", "*u2", "z@30", "s1@30"),
			tp(3, 2, true, "s3@10", "x@10", "*u3", "*u4", "z@30", "s2@30"),
		},
		After: []*TracePath{
			tp(0, 1, false, "s0@10", "x@10"),
			tp(0, 2, true, "s0@10", "x@10", "y@25", "w@30", "s2@30"),
			tp(1, 0, false, "s1@30", "z@30"),
			tp(3, 1, false, "s3@10", "x@10"),
			tp(3, 2, false, "s3@10", "x@10"),
		},
	}
	lg := &tableLG{
		avail: map[topology.ASN]bool{10: true},
		paths: map[topology.ASN]map[int][]topology.ASN{
			10: {1: {10, 20, 30}, 2: {10, 20, 30}},
		},
	}
	repeats := func(sets [][]int32) bool {
		for _, ids := range sets {
			seen := map[int32]bool{}
			for _, id := range ids {
				if seen[id] {
					return true
				}
				seen[id] = true
			}
		}
		return false
	}
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"tomo", Options{}},
		{"nd-edge", Options{LogicalLinks: true, UseReroutes: true}},
		{"nd-lg", Options{LogicalLinks: true, UseReroutes: true, Routing: &RoutingInfo{ASX: 10}, LG: lg, KeepUnidentified: true}},
	} {
		for _, par := range []int{1, 8} {
			opts := v.opts
			opts.Parallelism = par
			var be *bitEngine
			if _, err := runWith(context.Background(), m, opts, func(e *engine, m *Measurements) (*Result, error) {
				be = newBitEngine(e)
				return be.run(m)
			}); err != nil {
				t.Fatal(err)
			}
			if !repeats(be.failLinks) {
				t.Fatalf("%s: no failure set repeats a link: %v", v.name, be.failLinks)
			}
			if opts.UseReroutes && !repeats(be.rerLinks) {
				t.Fatalf("%s: no reroute set repeats a link: %v", v.name, be.rerLinks)
			}
			checkEngines(t, fmt.Sprintf("%s par=%d", v.name, par), m, opts)
		}
	}
}

// greedyScoreKernel returns one pass of the sparse scoring kernels the
// way the greedy loop composes them — initial countIn scores over sorted
// cover rows, best scan, delta retire through the set→candidate
// transpose — over preallocated buffers.
func greedyScoreKernel() func() {
	const nCand, nSets = 256, 512
	rng := rand.New(rand.NewSource(11))
	cover := make([][]int32, nCand)
	for i := range cover {
		for k := 0; k < 24; k++ {
			cover[i] = append(cover[i], int32(rng.Intn(nSets)))
		}
		slices.Sort(cover[i])
		cover[i] = slices.Compact(cover[i])
	}
	full, _ := fullMask(nSets)
	coveredBy := transpose(cover, nSets)
	fCnt := make([]int, nCand)
	rCnt := make([]int, nCand)
	alive := make([]bool, nCand)
	order := make([]int32, nCand)
	bestBuf := make([]int32, nCand)
	scratch := newBitset(nSets)
	unexpl := newBitset(nSets)
	return func() {
		copy(unexpl, full)
		for pos := range cover {
			order[pos] = int32(pos)
			alive[pos] = true
			fCnt[pos] = countIn(cover[pos], unexpl)
			rCnt[pos] = 0
		}
		for round := 0; round < 4; round++ {
			best, k := scanBest(order, alive, fCnt, rCnt, bestBuf)
			if best == 0 {
				break // ties retired every set early — nothing left to score
			}
			for s := 0; s < k; s++ {
				pos := bestBuf[s]
				alive[pos] = false
				accumDelta(cover[pos], unexpl, scratch)
			}
			retireSets(scratch, unexpl, coveredBy, fCnt)
		}
	}
}

// BenchmarkGreedyScoreKernel measures greedyScoreKernel.
func BenchmarkGreedyScoreKernel(b *testing.B) {
	run := greedyScoreKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestGreedyScoreKernelZeroAllocs pins that the scoring kernels do not
// allocate per round.
func TestGreedyScoreKernelZeroAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, greedyScoreKernel()); allocs != 0 {
		t.Fatalf("the greedy scoring kernels allocated %.1f times per run, want 0", allocs)
	}
}
