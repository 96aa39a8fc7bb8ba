package experiment

import (
	"fmt"
	"math/rand"

	"netdiag/internal/core"
	"netdiag/internal/topology"
)

// This file implements a sensor-placement optimization study, an extension
// the paper explicitly leaves open ("We do not specifically study sensor
// placement in this work", §4): greedily choose sensor stubs to maximize
// the diagnosability D(G) of the resulting traceroute graph, and compare
// against random placement at equal sensor counts.

// GreedyPlacement selects n sensor stubs by greedy diagnosability
// maximization: starting from a random seed pair, each step adds the
// candidate stub (from a random sample of size candidates) whose addition
// yields the highest D(G). It returns the chosen sensor routers.
func GreedyPlacement(res *topology.Research, n, candidates int, rng *rand.Rand) ([]topology.RouterID, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiment: greedy placement needs n >= 2, got %d", n)
	}
	chosen := map[topology.ASN]bool{}
	var sensors []topology.RouterID
	// Seed with two random stubs.
	perm := rng.Perm(len(res.Stubs))
	for _, idx := range perm[:2] {
		as := res.Stubs[idx]
		chosen[as] = true
		sensors = append(sensors, res.Topo.AS(as).Routers[0])
	}
	for len(sensors) < n {
		var bestSensor topology.RouterID
		var bestAS topology.ASN
		bestD := -1.0
		tried := 0
		for _, idx := range rng.Perm(len(res.Stubs)) {
			if tried >= candidates {
				break
			}
			as := res.Stubs[idx]
			if chosen[as] {
				continue
			}
			tried++
			cand := append(append([]topology.RouterID{}, sensors...), res.Topo.AS(as).Routers[0])
			env, err := NewEnv(res.Topo, cand)
			if err != nil {
				continue // placement made some pair unreachable: skip
			}
			if d := core.Diagnosability(env.Measurements().Before); d > bestD {
				bestD = d
				bestSensor = res.Topo.AS(as).Routers[0]
				bestAS = as
			}
		}
		if bestD < 0 {
			return nil, fmt.Errorf("experiment: no viable candidate at %d sensors", len(sensors))
		}
		chosen[bestAS] = true
		sensors = append(sensors, bestSensor)
	}
	return sensors, nil
}

// PlacementOptStudy compares greedy diagnosability-maximizing placement
// against random placement across sensor counts.
func PlacementOptStudy(cfg Config) (*Figure, error) {
	fig := newFigure("placement", "Greedy vs random sensor placement (extension)")
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(cfg.Seed))
	if err != nil {
		return nil, err
	}
	greedySeries := Series{Name: "greedy placement D"}
	randomSeries := Series{Name: "random placement D"}
	counts := []int{4, 6, 8, 10}
	reps := max(1, cfg.Placements/3)
	for _, n := range counts {
		gSum, rSum := 0.0, 0.0
		for rep := 0; rep < reps; rep++ {
			rng := rand.New(rand.NewSource(cfg.Seed*131 + int64(rep)*7 + int64(n)))
			gs, err := GreedyPlacement(res, n, 8, rng)
			if err != nil {
				return nil, err
			}
			genv, err := NewEnv(res.Topo, gs)
			if err != nil {
				return nil, err
			}
			gSum += core.Diagnosability(genv.Measurements().Before)

			rs, _, err := PlaceSensors(res, PlaceRandomStubs, n, rng)
			if err != nil {
				return nil, err
			}
			renv, err := NewEnv(res.Topo, rs)
			if err != nil {
				return nil, err
			}
			rSum += core.Diagnosability(renv.Measurements().Before)
		}
		greedySeries.X = append(greedySeries.X, float64(n))
		greedySeries.Y = append(greedySeries.Y, gSum/float64(reps))
		randomSeries.X = append(randomSeries.X, float64(n))
		randomSeries.Y = append(randomSeries.Y, rSum/float64(reps))
	}
	fig.Series = append(fig.Series, greedySeries, randomSeries)
	fig.Notes = append(fig.Notes,
		"greedy placement should dominate random at every sensor count; higher D means smaller hypothesis sets (paper Fig 9)")
	return fig, nil
}
