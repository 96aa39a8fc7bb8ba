package snapshot

import (
	"testing"

	"netdiag/internal/ip2as"
	"netdiag/internal/netsim"
	"netdiag/internal/topology"
)

// The worker-start pair below is what cmd/benchjson divides into the
// BENCH_pipeline.json snapshot-load-speedup values: cold is the full
// SPF+BGP+mesh convergence a fresh worker pays without a snapshot dir,
// load is the decode path that replaces it.

func BenchmarkSnapshotEncode(b *testing.B) {
	for _, name := range []string{"fig1", "fig2"} {
		b.Run(name, func(b *testing.B) {
			w := buildWorld(b, name)
			s := &Snapshot{Scenario: name, Sensors: w.sensors, Net: w.net, Mesh: w.mesh, IP2AS: w.table}
			data, err := Encode(s)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	for _, name := range []string{"fig1", "fig2"} {
		b.Run(name, func(b *testing.B) {
			w := buildWorld(b, name)
			data := encodeWorld(b, name, w)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data, w.topo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkerStartCold measures what a snapshot-less worker pays per
// scenario: converge the network (SPF + BGP fixpoint) and measure the
// healthy mesh plus the ip2as table.
func BenchmarkWorkerStartCold(b *testing.B) {
	for _, name := range []string{"fig1", "fig2"} {
		b.Run(name, func(b *testing.B) {
			topo, sensors := scenarioTopo(b, name)
			var origins []topology.ASN
			seen := map[topology.ASN]bool{}
			for _, s := range sensors {
				if as := topo.RouterAS(s); !seen[as] {
					seen[as] = true
					origins = append(origins, as)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net, err := netsim.New(topo, origins)
				if err != nil {
					b.Fatal(err)
				}
				_ = net.Mesh(sensors)
				if _, err := ip2as.FromTopology(topo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkerStartLoad measures the snapshot path replacing the cold
// start: one Decode rebuilds the converged network, the mesh and the
// ip2as table from bytes.
func BenchmarkWorkerStartLoad(b *testing.B) {
	for _, name := range []string{"fig1", "fig2"} {
		b.Run(name, func(b *testing.B) {
			w := buildWorld(b, name)
			data := encodeWorld(b, name, w)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data, w.topo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
