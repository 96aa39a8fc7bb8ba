package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// TestBitsetWordBoundaries exercises set/clear/has/popcount exactly at the
// 64-bit word edges — universes of 63, 64 and 65 bits, and indices 62..65 —
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
		if got := b.popcount(); got != n {
			t.Fatalf("popcount after filling %d bits: %d", n, got)
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
		if got := b.popcount(); got != n-3 {
			t.Fatalf("popcount after 3 clears: %d, want %d", got, n-3)
		}
	}
}

// TestBitsetSetGrow checks the growth write path and that reads stay
// tolerant of the capacity differences growth creates.
func TestBitsetSetGrow(t *testing.T) {
	var b bitset
	for _, i := range []int32{0, 63, 64, 65, 200, 1023} {
		setGrow(&b, i)
		if !b.has(i) {
			t.Fatalf("bit %d missing after setGrow", i)
		}
	}
	if got := b.popcount(); got != 6 {
		t.Fatalf("popcount %d, want 6", got)
	}
	// Mismatched lengths must still compare the shared words.
	short := newBitset(64)
	short.set(3)
	if andAny(short, b) {
		t.Fatalf("andAny found a bit neither side shares")
	}
	short.set(63)
	if !andAny(short, b) {
		t.Fatalf("andAny missed the shared bit 63")
	}
}

// TestBitsetAgainstMapModel drives the primitives against a map[int]bool
// reference model with random operations, covering and/or/popcount over
// random densities and mismatched word counts.
func TestBitsetAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 50; trial++ {
		na := 1 + rng.Intn(200)
		nb := 1 + rng.Intn(200)
		a, b := newBitset(na), newBitset(nb)
		ma, mb := map[int]bool{}, map[int]bool{}
		for i := 0; i < na; i++ {
			if rng.Intn(3) == 0 {
				a.set(int32(i))
				ma[i] = true
			}
		}
		for i := 0; i < nb; i++ {
			if rng.Intn(3) == 0 {
				b.set(int32(i))
				mb[i] = true
			}
		}
		wantBoth, wantAny := 0, false
		for i := range ma {
			if mb[i] {
				wantBoth++
				wantAny = true
			}
		}
		if got := andPopcount(a, b); got != wantBoth {
			t.Fatalf("trial %d: andPopcount=%d want %d", trial, got, wantBoth)
		}
		if got := andAny(a, b); got != wantAny {
			t.Fatalf("trial %d: andAny=%v want %v", trial, got, wantAny)
		}
		if got := a.popcount(); got != len(ma) {
			t.Fatalf("trial %d: popcount=%d want %d", trial, got, len(ma))
		}
		if na >= nb {
			orInto(a, b)
			for i := range mb {
				ma[i] = true
			}
			if got := a.popcount(); got != len(ma) {
				t.Fatalf("trial %d: popcount after orInto=%d want %d", trial, got, len(ma))
			}
		}
	}
}

// TestFullMask checks the unexplained-mask constructor at word edges.
func TestFullMask(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		m, cnt := fullMask(n)
		if cnt != n || m.popcount() != n {
			t.Fatalf("fullMask(%d): cnt=%d popcount=%d", n, cnt, m.popcount())
		}
		if n > 0 && !m.has(int32(n-1)) {
			t.Fatalf("fullMask(%d): top bit missing", n)
		}
		if m.has(int32(n)) {
			t.Fatalf("fullMask(%d): bit %d should be clear", n, n)
		}
	}
}

// TestTransposeCover checks the candidate→set inversion feeding the
// incremental score updates.
func TestTransposeCover(t *testing.T) {
	cover := []bitset{newBitset(130), nil, newBitset(130)}
	cover[0].set(0)
	cover[0].set(64)
	cover[2].set(64)
	cover[2].set(129)
	got := transposeCover(cover, 130)
	check := func(set int, want ...int32) {
		t.Helper()
		if len(got[set]) != len(want) {
			t.Fatalf("set %d: %v, want %v", set, got[set], want)
		}
		for i := range want {
			if got[set][i] != want[i] {
				t.Fatalf("set %d: %v, want %v", set, got[set], want)
			}
		}
	}
	check(0, 0)
	check(64, 0, 2)
	check(129, 2)
	check(1)
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

// TestEngineEquivalenceSynthetic is the in-package quick differential: the
// bitset and map engines must render byte-identical wire output on the
// synthetic benchmark meshes across variants and parallelism. The
// cross-variant harness over the paper topologies lives in
// internal/experiment.
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
				got, err := Run(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunReference(context.Background(), m, opts)
				if err != nil {
					t.Fatal(err)
				}
				var gb, wb bytes.Buffer
				if err := got.Wire("x").Encode(&gb); err != nil {
					t.Fatal(err)
				}
				if err := want.Wire("x").Encode(&wb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
					t.Fatalf("seed %d opts %+v: engines disagree\nbitset: %s\nmap: %s",
						seed, opts, gb.String(), wb.String())
				}
			}
		}
	}
}

// BenchmarkGreedyScoreKernel exercises the bitset scoring kernels the way
// the greedy loop composes them — initial popcount scores, best scan,
// delta retire — over preallocated buffers. Guarded by benchjson
// -allocguard: the kernels must not allocate per round.
func BenchmarkGreedyScoreKernel(b *testing.B) {
	const nCand, nSets = 256, 512
	rng := rand.New(rand.NewSource(11))
	cover := make([]bitset, nCand)
	for i := range cover {
		cover[i] = newBitset(nSets)
		for k := 0; k < 24; k++ {
			cover[i].set(int32(rng.Intn(nSets)))
		}
	}
	full, _ := fullMask(nSets)
	coveredBy := transposeCover(cover, nSets)
	fCnt := make([]int, nCand)
	rCnt := make([]int, nCand)
	alive := make([]bool, nCand)
	order := make([]int32, nCand)
	bestBuf := make([]int32, nCand)
	scratch := newBitset(nSets)
	unexpl := newBitset(nSets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(unexpl, full)
		for pos := range cover {
			order[pos] = int32(pos)
			alive[pos] = true
			fCnt[pos] = andPopcount(cover[pos], unexpl)
			rCnt[pos] = 0
		}
		for round := 0; round < 4; round++ {
			best, k := scanBest(order, alive, fCnt, rCnt, 1, 1, bestBuf)
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
