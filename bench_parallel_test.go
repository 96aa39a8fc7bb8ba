// Benchmarks for the parallel engine: the same workload at increasing
// worker counts. On a multi-core machine the higher worker counts should
// show a clear (>= 2x at 4 workers) speedup; on a single-core machine the
// variants measure the overhead of the pool, which is small. The outputs
// are byte-identical at every parallelism level (see
// internal/experiment's TestParallelismCSVDeterminism), so these compare
// pure wall-clock cost.
package netdiag_test

import (
	"fmt"
	"testing"

	"netdiag"
	"netdiag/internal/experiment"
)

var parallelismLevels = []int{1, 2, 4, 8}

// BenchmarkNetworkConvergenceParallelism converges the paper's 165-AS
// research topology (per-prefix BGP fan-out + per-AS SPF fan-out).
func BenchmarkNetworkConvergenceParallelism(b *testing.B) {
	res, err := netdiag.GenerateResearch(7)
	if err != nil {
		b.Fatal(err)
	}
	origins := append([]netdiag.ASN{}, res.Stubs...)
	for _, par := range parallelismLevels {
		b.Run(fmt.Sprintf("workers-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netdiag.NewNetwork(res.Topo, origins,
					netdiag.WithNetworkParallelism(par)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioParallelism runs a trial-driven scenario figure
// (Figure 7: envs, fault trials, meshes and diagnoses) end to end.
func BenchmarkScenarioParallelism(b *testing.B) {
	for _, par := range parallelismLevels {
		b.Run(fmt.Sprintf("workers-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg()
				cfg.Parallelism = par
				if _, err := experiment.Figure7(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
