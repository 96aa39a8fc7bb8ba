// Benchmarks regenerating every figure of the paper's evaluation (§5) at a
// reduced scale, one benchmark per table/figure. Each benchmark reports the
// headline metric of its figure via b.ReportMetric, so `go test -bench .`
// doubles as a quick reproduction check; cmd/ndsim runs the full scale.
package netdiag_test

import (
	"testing"

	"netdiag/internal/experiment"
)

// benchCfg is the reduced per-iteration workload: one placement, a handful
// of impactful failures. Parallel placements are disabled so the benchmark
// measures single-threaded cost. Every iteration runs seed 1, so ns/op
// times one workload at any b.N and the reported metrics are seed 1's.
func benchCfg() experiment.Config {
	cfg := experiment.DefaultConfig(1)
	cfg.Placements = 1
	cfg.FailuresPerPlacement = 5
	cfg.Parallel = false
	return cfg
}

func seriesMean(fig *experiment.Figure, name string) float64 {
	for _, s := range fig.Series {
		if s.Name == name {
			sum := 0.0
			for _, y := range s.Y {
				sum += y
			}
			if len(s.Y) > 0 {
				return sum / float64(len(s.Y))
			}
		}
	}
	return -1
}

// BenchmarkFigure5 regenerates the sensor-placement vs diagnosability
// study (Figure 5).
func BenchmarkFigure5(b *testing.B) {
	var lastRandom float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Figure5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		lastRandom = seriesMean(fig, "random")
	}
	b.ReportMetric(lastRandom, "diag(random)")
}

// BenchmarkFigure6 regenerates Tomo's sensitivity CDFs (Figure 6).
func BenchmarkFigure6(b *testing.B) {
	var tomo1, tomo3 float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Figure6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		tomo1 = fig.CDFs["tomo 1-link"].Mean()
		tomo3 = fig.CDFs["tomo 3-link"].Mean()
	}
	b.ReportMetric(tomo1, "sens(tomo,1link)")
	b.ReportMetric(tomo3, "sens(tomo,3link)")
}

// BenchmarkFigure7 regenerates the Tomo vs ND-edge sensitivity comparison
// (Figure 7).
func BenchmarkFigure7(b *testing.B) {
	var tomo, edge float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Figure7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		tomo = fig.CDFs["tomo 3-link"].Mean()
		edge = fig.CDFs["nd-edge 3-link"].Mean()
	}
	b.ReportMetric(tomo, "sens(tomo)")
	b.ReportMetric(edge, "sens(nd-edge)")
}

// BenchmarkFigure8 regenerates the ND-edge specificity CDFs (Figure 8).
func BenchmarkFigure8(b *testing.B) {
	var link, mc float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Figure8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		link = fig.CDFs["nd-edge 1-link"].Mean()
		mc = fig.CDFs["nd-edge misconfig"].Mean()
	}
	b.ReportMetric(link, "spec(1link)")
	b.ReportMetric(mc, "spec(misconfig)")
}

// BenchmarkFigure9 regenerates the diagnosability vs specificity scatter
// (Figure 9).
func BenchmarkFigure9(b *testing.B) {
	var minSpec float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Figure9(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		minSpec = 1.0
		for _, p := range fig.Points {
			if p.Y < minSpec {
				minSpec = p.Y
			}
		}
	}
	b.ReportMetric(minSpec, "minSpec")
}

// BenchmarkFigure10 regenerates the ND-edge vs ND-bgpigp comparison
// (Figure 10).
func BenchmarkFigure10(b *testing.B) {
	var edge, bgpigp float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Figure10(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		edge = fig.CDFs["nd-edge specificity"].Mean()
		bgpigp = fig.CDFs["nd-bgpigp specificity"].Mean()
	}
	b.ReportMetric(edge, "spec(nd-edge)")
	b.ReportMetric(bgpigp, "spec(nd-bgpigp)")
}

// BenchmarkFigure11 regenerates the blocked-traceroute study (Figure 11).
func BenchmarkFigure11(b *testing.B) {
	var lg, bg float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.FailuresPerPlacement = 3 // 9 f_b levels inside
		fig, err := experiment.Figure11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lg = seriesMean(fig, "nd-lg AS-sensitivity")
		bg = seriesMean(fig, "nd-bgpigp AS-sensitivity")
	}
	b.ReportMetric(lg, "ASsens(nd-lg)")
	b.ReportMetric(bg, "ASsens(nd-bgpigp)")
}

// BenchmarkFigure12 regenerates the Looking-Glass availability study
// (Figure 12).
func BenchmarkFigure12(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.FailuresPerPlacement = 2 // 3 f_b x 6 LG levels inside
		fig, err := experiment.Figure12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = seriesMean(fig, "nd-lg fb=0.50")
	}
	b.ReportMetric(last, "ASsens(fb=.5)")
}

// BenchmarkRouterFailure regenerates the §5.2 router-failure study.
func BenchmarkRouterFailure(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RouterFailureStudy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rate = seriesMean(fig, "detection rate")
	}
	b.ReportMetric(rate, "detectRate")
}

// BenchmarkASLevelEdge regenerates the §5.2 AS-granularity study.
func BenchmarkASLevelEdge(b *testing.B) {
	var sens float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.ASLevelStudy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		sens = fig.CDFs["AS-sensitivity"].Mean()
	}
	b.ReportMetric(sens, "ASsens")
}

// BenchmarkASXPosition regenerates the §5.3 AS-X position study.
func BenchmarkASXPosition(b *testing.B) {
	var core, stub float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.ASXPositionStudy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		core = fig.CDFs["core AS-X specificity"].Mean()
		stub = fig.CDFs["stub AS-X specificity"].Mean()
	}
	b.ReportMetric(core, "spec(core)")
	b.ReportMetric(stub, "spec(stub)")
}

// BenchmarkAblation measures the per-feature contribution study.
func BenchmarkAblation(b *testing.B) {
	var edge, tomo float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.AblationStudy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		edge = fig.CDFs["nd-edge (both) sens"].Mean()
		tomo = fig.CDFs["tomo (no features) sens"].Mean()
	}
	b.ReportMetric(edge, "sens(nd-edge)")
	b.ReportMetric(tomo, "sens(tomo)")
}

// BenchmarkSCFSBaseline measures the SCFS-vs-Tomo baseline study.
func BenchmarkSCFSBaseline(b *testing.B) {
	var tomo, scfs float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.SCFSStudy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		tomo = fig.CDFs["tomo sensitivity"].Mean()
		scfs = fig.CDFs["scfs-union sensitivity"].Mean()
	}
	b.ReportMetric(tomo, "sens(tomo)")
	b.ReportMetric(scfs, "sens(scfs)")
}

// BenchmarkPlacementOpt measures the greedy-placement extension study.
func BenchmarkPlacementOpt(b *testing.B) {
	var greedy float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.PlacementOptStudy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		greedy = seriesMean(fig, "greedy placement D")
	}
	b.ReportMetric(greedy, "D(greedy)")
}
