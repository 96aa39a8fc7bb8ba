package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netdiag/internal/core"
	"netdiag/internal/topology"
)

func l(a, b string) core.Link { return core.Link{From: core.Node(a), To: core.Node(b)} }

func TestSensitivity(t *testing.T) {
	f := []core.Link{l("a", "b"), l("c", "d")}
	h := []core.Link{l("a", "b"), l("x", "y")}
	if got := Sensitivity(f, h); got != 0.5 {
		t.Fatalf("sensitivity = %v, want 0.5", got)
	}
	if got := Sensitivity(nil, h); got != 1 {
		t.Fatalf("empty F should give 1, got %v", got)
	}
	if got := Sensitivity(f, nil); got != 0 {
		t.Fatalf("empty H should give 0, got %v", got)
	}
}

func TestSpecificityPaperExample(t *testing.T) {
	// §4: |E|=150, |F|=1, |H|=10 (F ⊂ H) gives 140/149 ≈ 0.939.
	var universe []core.Link
	for i := 0; i < 150; i++ {
		universe = append(universe, core.Link{From: core.Node(rune('A' + i/26)), To: core.Node(string(rune('a'+i%26)) + string(rune('0'+i/26)))})
	}
	failed := universe[:1]
	hyp := universe[:10]
	got := Specificity(universe, failed, hyp)
	want := 140.0 / 149.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("specificity = %v, want %v", got, want)
	}
}

func TestASMetrics(t *testing.T) {
	cov := []topology.ASN{1, 2, 3, 4, 5}
	failed := []topology.ASN{2}
	hyp := []topology.ASN{2, 3}
	if got := ASSensitivity(failed, hyp); got != 1 {
		t.Fatalf("AS-sensitivity = %v", got)
	}
	if got := ASSpecificity(cov, failed, hyp); got != 0.75 {
		t.Fatalf("AS-specificity = %v, want 0.75 (3 of 4 non-failed left out)", got)
	}
	if got := ASSensitivity([]topology.ASN{9}, hyp); got != 0 {
		t.Fatalf("missing AS should give 0, got %v", got)
	}
}

func TestDistBasics(t *testing.T) {
	d := &Dist{}
	for _, v := range []float64{0.2, 0.4, 0.4, 1.0} {
		d.Add(v)
	}
	if d.N() != 4 {
		t.Fatal("N")
	}
	if got := d.Mean(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if got := d.Quantile(0.5); got != 0.4 {
		t.Fatalf("median = %v", got)
	}
	if got := d.CDFAt(0.4); got != 0.75 {
		t.Fatalf("CDF(0.4) = %v, want 0.75", got)
	}
	if got := d.CDFAt(0.39); got != 0.25 {
		t.Fatalf("CDF(0.39) = %v, want 0.25", got)
	}
	pts := d.CDF()
	if len(pts) != 3 || pts[len(pts)-1].P != 1.0 {
		t.Fatalf("CDF points = %v", pts)
	}
}

func TestDistCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := &Dist{}
		for i := 0; i < 50; i++ {
			d.Add(rng.Float64())
		}
		pts := d.CDF()
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].P < pts[i-1].P {
				return false
			}
		}
		return pts[len(pts)-1].P == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecificityBoundsProperty(t *testing.T) {
	// Specificity and sensitivity always land in [0,1] for arbitrary
	// subsets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var universe []core.Link
		for i := 0; i < 30; i++ {
			universe = append(universe, core.Link{
				From: core.Node(rune('a' + rng.Intn(10))),
				To:   core.Node(rune('A' + i)),
			})
		}
		pick := func() []core.Link {
			var out []core.Link
			for _, l := range universe {
				if rng.Intn(3) == 0 {
					out = append(out, l)
				}
			}
			return out
		}
		fl, h := pick(), pick()
		se := Sensitivity(fl, h)
		sp := Specificity(universe, fl, h)
		return se >= 0 && se <= 1 && sp >= 0 && sp <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAsciiCDF(t *testing.T) {
	d := &Dist{}
	d.Add(0.5)
	out := AsciiCDF("demo", map[string]*Dist{"one": d}, 5)
	if out == "" || len(out) < 10 {
		t.Fatalf("AsciiCDF output too short: %q", out)
	}
}

func TestEmptyDistSafe(t *testing.T) {
	d := &Dist{}
	if d.Mean() != 0 || d.Quantile(0.5) != 0 || d.CDFAt(1) != 0 {
		t.Fatal("empty Dist should return zeros")
	}
	if d.CDF() != nil {
		t.Fatal("empty CDF should be nil")
	}
}
