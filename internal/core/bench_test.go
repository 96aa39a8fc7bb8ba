package core

import (
	"fmt"
	"math/rand"
	"testing"

	"netdiag/internal/topology"
)

// synthMeasurements builds a synthetic measurement mesh: n sensors, paths
// of ~8 hops over a shared pool of routers across several ASes, with
// `broken` randomly failed pairs. Deterministic in seed.
func synthMeasurements(n, broken int, seed int64) *Measurements {
	rng := rand.New(rand.NewSource(seed))
	const routers = 120
	const ases = 12
	hopName := func(r int) Hop {
		return Hop{Node: Node(fmt.Sprintf("r%d", r)), AS: topology.ASN(1 + r%ases)}
	}
	m := &Measurements{NumSensors: n}
	failPair := map[pair]bool{}
	for broken > 0 {
		p := pair{rng.Intn(n), rng.Intn(n)}
		if p.src != p.dst && !failPair[p] {
			failPair[p] = true
			broken--
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			// A deterministic pseudo-route per pair.
			prng := rand.New(rand.NewSource(seed*1000 + int64(i*n+j)))
			hops := []Hop{{Node: Node(fmt.Sprintf("s%d", i)), AS: topology.ASN(1 + i%ases)}}
			for k := 0; k < 6; k++ {
				hops = append(hops, hopName(prng.Intn(routers)))
			}
			hops = append(hops, Hop{Node: Node(fmt.Sprintf("s%d", j)), AS: topology.ASN(1 + j%ases)})
			before := &TracePath{SrcSensor: i, DstSensor: j, OK: true, Hops: hops}
			after := &TracePath{SrcSensor: i, DstSensor: j, OK: true, Hops: hops}
			if failPair[pair{i, j}] {
				after = &TracePath{SrcSensor: i, DstSensor: j, OK: false, Hops: hops[:2]}
			}
			m.Before = append(m.Before, before)
			m.After = append(m.After, after)
		}
	}
	return m
}

// BenchmarkTomo measures the greedy hitting-set on a 10-sensor mesh with
// 8 failed pairs.
func BenchmarkTomo(b *testing.B) {
	m := synthMeasurements(10, 8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNDEdge measures the full ND-edge pipeline (logical expansion +
// reroutes + greedy) on the same mesh.
func BenchmarkNDEdge(b *testing.B) {
	m := synthMeasurements(10, 8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, Options{LogicalLinks: true, UseReroutes: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpandPaths measures the logical-link expansion as the default
// engine runs it: node interning, then the expansion of the ID arena.
func BenchmarkExpandPaths(b *testing.B) {
	m := synthMeasurements(10, 0, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readMesh(m).expand(m, false)
	}
}

// BenchmarkDiagnosability measures the D(G) computation on 90 paths.
func BenchmarkDiagnosability(b *testing.B) {
	m := synthMeasurements(10, 0, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Diagnosability(m.Before) <= 0 {
			b.Fatal("bad diagnosability")
		}
	}
}
