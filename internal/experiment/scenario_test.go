package experiment

import (
	"math/rand"
	"testing"

	"netdiag/internal/core"
	"netdiag/internal/metrics"
	"netdiag/internal/topology"
)

func testEnv(t *testing.T, seed int64, n int, kind Placement) (*Env, *topology.Research) {
	t.Helper()
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1000))
	sensors, _, err := PlaceSensors(res, kind, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(res.Topo, sensors)
	if err != nil {
		t.Fatal(err)
	}
	return env, res
}

func TestEnvSetup(t *testing.T) {
	env, _ := testEnv(t, 1, 10, PlaceRandomStubs)
	if len(env.Sensors) != 10 {
		t.Fatalf("sensors = %d", len(env.Sensors))
	}
	if len(env.E) == 0 || len(env.PhysProbed) == 0 {
		t.Fatal("no probed links")
	}
	// Paper: diagnosability with 10 random sensors lands in 0.25–0.6.
	d := core.Diagnosability(env.Measurements().Before)
	if d < 0.15 || d > 0.75 {
		t.Fatalf("diagnosability %v far outside the paper's band", d)
	}
}

func TestSingleLinkFailureTrialAllAlgorithms(t *testing.T) {
	env, res := testEnv(t, 2, 10, PlaceRandomStubs)
	rng := rand.New(rand.NewSource(7))
	asx := res.Cores[0]

	ran := 0
	for attempt := 0; attempt < 50 && ran < 3; attempt++ {
		f, ok := env.SampleLinkFault(rng, 1)
		if !ok {
			t.Fatal("cannot sample link fault")
		}
		td, err := env.RunTrial(f, asx, nil, nil)
		if err == ErrNoImpact {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		ran++
		if len(td.FailedLinks) == 0 {
			t.Fatal("ground truth empty for impactful fault")
		}

		tomo, err := core.Run(td.Meas, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		edge, err := core.Run(td.Meas, core.Options{LogicalLinks: true, UseReroutes: true})
		if err != nil {
			t.Fatal(err)
		}
		bgpigp, err := core.Run(td.Meas, core.Options{LogicalLinks: true, UseReroutes: true, Routing: td.Routing})
		if err != nil {
			t.Fatal(err)
		}

		// Paper §5.1: single non-recoverable link failures are found by
		// Tomo; ND-edge must never be worse.
		seTomo := metrics.Sensitivity(td.FailedLinks, tomo.PhysLinks())
		seEdge := metrics.Sensitivity(td.FailedLinks, edge.PhysLinks())
		if seEdge < seTomo {
			t.Fatalf("ND-edge sensitivity %v < Tomo %v", seEdge, seTomo)
		}
		if seEdge < 1 {
			t.Fatalf("ND-edge must find a single link failure, got %v (F=%v H=%v)",
				seEdge, td.FailedLinks, edge.PhysLinks())
		}
		spEdge := metrics.Specificity(env.E, td.FailedLinks, edge.PhysLinks())
		spBgp := metrics.Specificity(env.E, td.FailedLinks, bgpigp.PhysLinks())
		if spBgp < spEdge {
			t.Fatalf("ND-bgpigp specificity %v < ND-edge %v", spBgp, spEdge)
		}
	}
	if ran == 0 {
		t.Fatal("no impactful single-link trial in 50 attempts")
	}
}

func TestMisconfigTrial(t *testing.T) {
	env, res := testEnv(t, 3, 10, PlaceRandomStubs)
	rng := rand.New(rand.NewSource(9))
	asx := res.Cores[0]

	ran := false
	for attempt := 0; attempt < 80 && !ran; attempt++ {
		f, ok := env.SampleMisconfig(rng)
		if !ok {
			t.Skip("no misconfigurable links for this placement")
		}
		td, err := env.RunTrial(f, asx, nil, nil)
		if err == ErrNoImpact {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		ran = true
		edge, err := core.Run(td.Meas, core.Options{LogicalLinks: true, UseReroutes: true})
		if err != nil {
			t.Fatal(err)
		}
		se := metrics.Sensitivity(td.FailedLinks, edge.PhysLinks())
		if se < 1 {
			t.Fatalf("ND-edge should localize the misconfiguration; F=%v H=%v",
				td.FailedLinks, edge.PhysLinks())
		}
	}
	if !ran {
		t.Skip("no impactful misconfiguration found (placement-dependent)")
	}
}

func TestRouterFailureTrial(t *testing.T) {
	env, res := testEnv(t, 4, 8, PlaceRandomStubs)
	rng := rand.New(rand.NewSource(11))
	for attempt := 0; attempt < 50; attempt++ {
		f, ok := env.SampleRouterFault(rng)
		if !ok {
			t.Fatal("no router candidates")
		}
		td, err := env.RunTrial(f, res.Cores[0], nil, nil)
		if err == ErrNoImpact {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		edge, err := core.Run(td.Meas, core.Options{LogicalLinks: true, UseReroutes: true})
		if err != nil {
			t.Fatal(err)
		}
		// Paper §5.2: ND-edge identifies the failed router in every run —
		// H contains at least one link attached to it.
		se := metrics.Sensitivity(td.FailedLinks, edge.PhysLinks())
		if se == 0 {
			t.Fatalf("ND-edge found no link of the failed router; F=%v H=%v",
				td.FailedLinks, edge.PhysLinks())
		}
		return
	}
	t.Fatal("no impactful router failure in 50 attempts")
}

func TestBlockedTracerouteTrial(t *testing.T) {
	env, res := testEnv(t, 5, 10, PlaceRandomStubs)
	rng := rand.New(rand.NewSource(13))
	asx := res.Cores[0]

	// Block half the covered transit ASes.
	covered := env.BeforeMesh.CoveredASes()
	sensorAS := map[topology.ASN]bool{}
	for _, a := range env.SensorASes {
		sensorAS[a] = true
	}
	blocked := map[topology.ASN]bool{}
	i := 0
	for as := range covered {
		if sensorAS[as] || as == asx {
			continue
		}
		if i%2 == 0 {
			blocked[as] = true
		}
		i++
	}

	for attempt := 0; attempt < 60; attempt++ {
		f, ok := env.SampleLinkFault(rng, 1)
		if !ok {
			t.Fatal("sample failed")
		}
		td, err := env.RunTrial(f, asx, blocked, nil)
		if err == ErrNoImpact {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		lgRes, err := core.Run(td.Meas, core.Options{LogicalLinks: true, UseReroutes: true, Routing: td.Routing, LG: td.LG, KeepUnidentified: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(lgRes.Hypothesis) == 0 && lgRes.UnexplainedFailures == 0 {
			t.Fatal("empty hypothesis with no unexplained failures")
		}
		// AS-level metrics must be computable.
		s := metrics.ASSensitivity(td.FailedASes, lgRes.ASes())
		sp := metrics.ASSpecificity(td.CoveredASes, td.FailedASes, lgRes.ASes())
		if s < 0 || s > 1 || sp < 0 || sp > 1 {
			t.Fatalf("AS metrics out of range: %v %v", s, sp)
		}
		return
	}
	t.Fatal("no impactful trial")
}

func TestPlacementsProduceExpectedDiagnosabilityOrder(t *testing.T) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	diag := func(kind Placement) float64 {
		rng := rand.New(rand.NewSource(77))
		sensors, _, err := PlaceSensors(res, kind, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		env, err := NewEnv(res.Topo, sensors)
		if err != nil {
			t.Fatal(err)
		}
		return core.Diagnosability(env.Measurements().Before)
	}
	same := diag(PlaceSameAS)
	distant := diag(PlaceDistantAS)
	if same <= distant {
		t.Fatalf("same-AS diagnosability %v should exceed distant-AS %v (paper Fig 5)", same, distant)
	}
}

func TestIP2ASMappingMatchesGroundTruth(t *testing.T) {
	// The troubleshooter's IP-to-AS mapping must reproduce the mesh's own
	// AS attribution exactly: mapped and unmapped measurements coincide.
	env, _ := testEnv(t, 14, 6, PlaceRandomStubs)
	plain := ToMeasurements(env.BeforeMesh, env.BeforeMesh)
	mapped := ToMeasurementsMapped(env.BeforeMesh, env.BeforeMesh, env.IP2AS.Lookup)
	if len(plain.Before) != len(mapped.Before) {
		t.Fatal("path counts differ")
	}
	for i := range plain.Before {
		a, b := plain.Before[i], mapped.Before[i]
		if len(a.Hops) != len(b.Hops) {
			t.Fatalf("path %d hop counts differ", i)
		}
		for k := range a.Hops {
			if a.Hops[k] != b.Hops[k] {
				t.Fatalf("hop %d of path %d differs: %+v vs %+v", k, i, a.Hops[k], b.Hops[k])
			}
		}
	}
}
