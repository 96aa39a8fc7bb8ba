package core_test

import (
	"context"
	"fmt"
	"testing"

	"netdiag/internal/core"
	"netdiag/internal/experiment"
	"netdiag/internal/telemetry"
)

// TestLargeMeshEngineEquivalence extends the differential net to the
// benchmark generator's mesh shape (hub-concentrated overlapping sets) at a
// size where the map engine is still cheap to run: Tomo, ND-edge and
// per-prefix ND-edge, so both front halves meet every expansion mode.
func TestLargeMeshEngineEquivalence(t *testing.T) {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"tomo", core.Options{}},
		{"nd-edge", core.Options{LogicalLinks: true, UseReroutes: true}},
		{"nd-edge-per-prefix", core.Options{LogicalLinks: true, UseReroutes: true, PerPrefixLogical: true}},
	}
	for _, seed := range []int64{7, 19} {
		m := experiment.GenerateLargeMesh(experiment.DefaultLargeMesh(300, seed))
		for _, v := range variants {
			if err := core.CheckEngines(t, fmt.Sprintf("seed %d %s", seed, v.name), m, v.opts); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// benchDiagnose runs a full ND-edge diagnosis of a hub-failure event on an
// n-sensor mesh. Beyond the standard ns/op it reports, from the run's
// telemetry spans, the front-half time (validate + expand + build_sets:
// reading the measurements into IDs and building the sets) and the
// greedy-phase time, a sensors-per-second throughput figure for the
// scalability curve, and the bytes and allocations of one diagnosis.
// benchjson divides the 600-sensor Map row by the Bitset row into the
// diagnose-speedup/600 and diagnose-greedy-speedup/600 ratios.
func benchDiagnose(b *testing.B, n int, run func(context.Context, *core.Measurements, core.Options) (*core.Result, error)) {
	m := experiment.GenerateLargeMesh(experiment.DefaultLargeMesh(n, 7))
	opts := core.Options{LogicalLinks: true, UseReroutes: true, Telemetry: telemetry.New()}
	var frontNs, greedyNs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(context.Background(), m, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations == 0 || len(res.Hypothesis) == 0 {
			b.Fatalf("degenerate diagnosis: %d iterations, %d hypothesis links",
				res.Iterations, len(res.Hypothesis))
		}
		for _, sp := range res.Telemetry {
			switch sp.Name {
			case "validate", "expand", "build_sets":
				frontNs += int64(sp.Duration)
			case "greedy":
				greedyNs += int64(sp.Duration)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(frontNs)/float64(b.N), "front-ns/op")
	b.ReportMetric(float64(greedyNs)/float64(b.N), "greedy-ns/op")
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sensors/s")
}

// BenchmarkDiagnoseBitset is the scalability series of the bitset engine;
// 10000 sensors is the headline point.
func BenchmarkDiagnoseBitset(b *testing.B) {
	for _, n := range []int{600, 2000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) { benchDiagnose(b, n, core.RunCtx) })
	}
}

// BenchmarkDiagnoseMap is the reference engine at 600 sensors, the
// paper's largest evaluation, for the speedup ratios. Its full
// per-iteration rescoring grows super-linearly with the mesh, so larger
// sizes would dominate the `make bench` sweep.
func BenchmarkDiagnoseMap(b *testing.B) {
	b.Run("600", func(b *testing.B) { benchDiagnose(b, 600, core.RunReference) })
}
