package experiment

import (
	"math/rand"
	"testing"
	"time"

	"netdiag/internal/core"
	"netdiag/internal/topology"
)

func TestTrialThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("perf probe")
	}
	res, _ := topology.GenerateResearch(topology.DefaultResearchConfig(42))
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	sensors, _, _ := PlaceSensors(res, PlaceRandomStubs, 10, rng)
	env, err := NewEnv(res.Topo, sensors)
	if err != nil {
		t.Fatal(err)
	}
	envTime := time.Since(start)
	start = time.Now()
	n := 0
	for i := 0; i < 60; i++ {
		f, _ := env.SampleLinkFault(rng, 1)
		td, err := env.RunTrial(f, res.Cores[0], nil, nil)
		if err != nil {
			continue
		}
		n++
		if _, err := core.Run(td.Meas, core.Options{LogicalLinks: true, UseReroutes: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(td.Meas, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("env setup: %v; 60 trials (%d impactful, with Tomo+NDEdge): %v (%.1fms/trial)",
		envTime, n, time.Since(start), float64(time.Since(start).Milliseconds())/60)
}
