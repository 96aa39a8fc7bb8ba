package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"netdiag/internal/core"
	"netdiag/internal/experiment"
	"netdiag/internal/topology"
)

// The tests in this file pin the central contract of the bitset diagnosis
// engine: on every algorithm variant (Tomo, ND-edge, ND-bgpigp, ND-LG), at
// any scoring parallelism, the packed-bitset engine and the map-based
// reference engine render byte-identical wire output. Each randomized
// trial injects a fault (link, multi-link, router, or misconfiguration)
// into a simulated network — optionally with traceroute-blocking ASes and
// partial Looking-Glass coverage, so UH mapping and link clustering are on
// the hot path — and diffs the engines on the resulting measurements.

// equivEnv builds an experiment Env over an arbitrary topology (the paper's
// figure examples are not research-shaped).
func equivEnv(t *testing.T, topo *topology.Topology, sensors []topology.RouterID) *experiment.Env {
	t.Helper()
	env, err := experiment.NewEnv(topo, sensors)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// sampleEquivFault draws one fault, mixing every injectable kind and
// falling back to a single link failure when a kind is unavailable on the
// topology (e.g. no interdomain links to misconfigure on fig1).
func sampleEquivFault(env *experiment.Env, rng *rand.Rand) (experiment.Fault, bool) {
	switch rng.Intn(4) {
	case 0:
		return env.SampleLinkFault(rng, 1)
	case 1:
		if f, ok := env.SampleLinkFault(rng, 2); ok {
			return f, true
		}
		return env.SampleLinkFault(rng, 1)
	case 2:
		if f, ok := env.SampleRouterFault(rng); ok {
			return f, true
		}
		return env.SampleLinkFault(rng, 1)
	default:
		if f, ok := env.SampleMisconfig(rng); ok {
			return f, true
		}
		return env.SampleLinkFault(rng, 1)
	}
}

// engineDiffTrial diffs the engines over all four variants × parallelism
// 1 and 8 on one trial's measurements.
func engineDiffTrial(t *testing.T, td *experiment.TrialData, label string) {
	t.Helper()
	variants := []struct {
		name string
		opts core.Options
	}{
		{"tomo", core.Options{}},
		{"nd-edge", core.Options{LogicalLinks: true, UseReroutes: true}},
		{"nd-bgpigp", core.Options{LogicalLinks: true, UseReroutes: true, Routing: td.Routing}},
		{"nd-lg", core.Options{LogicalLinks: true, UseReroutes: true, Routing: td.Routing, LG: td.LG, KeepUnidentified: true}},
	}
	for _, v := range variants {
		for _, par := range []int{1, 8} {
			opts := v.opts
			opts.Parallelism = par
			if err := core.CheckEngines(t, fmt.Sprintf("%s %s par=%d", label, v.name, par), td.Meas, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// runEngineEquivTrials drives `trials` impactful randomized fault trials
// through the engine diff. withBlocked additionally exercises masked
// traceroutes and partial LG coverage on half the trials.
func runEngineEquivTrials(t *testing.T, env *experiment.Env, asx topology.ASN, seed int64, trials int, withBlocked bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	done, tries := 0, 0
	maxTries := trials * 20
	for done < trials && tries < maxTries {
		tries++
		f, ok := sampleEquivFault(env, rng)
		if !ok {
			t.Fatal("no injectable fault on this topology")
		}
		var blocked, lgAvail map[topology.ASN]bool
		if withBlocked && rng.Intn(2) == 0 {
			blocked = experiment.SampleBlocked(0.34)(env, asx, rng)
			lgAvail = experiment.SampleLGAvail(0.8)(env, asx, rng)
		}
		td, err := env.RunTrial(f, asx, blocked, lgAvail)
		if err == experiment.ErrNoImpact {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		done++
		engineDiffTrial(t, td, fmt.Sprintf("seed %d trial %d", seed, done))
	}
	if done < trials {
		t.Fatalf("only %d/%d impactful trials in %d tries", done, trials, tries)
	}
}

func TestEngineEquivalenceFig2(t *testing.T) {
	f := topology.BuildFig2()
	env := equivEnv(t, f.Topo, []topology.RouterID{f.S1, f.S2, f.S3})
	runEngineEquivTrials(t, env, f.ASX, 42, 100, true)
}

func TestEngineEquivalenceFig1(t *testing.T) {
	f := topology.BuildFig1()
	env := equivEnv(t, f.Topo, []topology.RouterID{f.S1, f.S2, f.S3})
	runEngineEquivTrials(t, env, 1, 7, 60, false)
}

func TestEngineEquivalenceResearch(t *testing.T) {
	if testing.Short() {
		t.Skip("research-topology trials in -short mode")
	}
	cfg := topology.ResearchConfig{
		NumTier2:            4,
		NumStubs:            12,
		Tier2Routers:        5,
		Tier2MultihomedFrac: 0.5,
		StubMultihomedFrac:  0.25,
		StubsOnCoreFrac:     0.2,
		Seed:                3,
	}
	res, err := topology.GenerateResearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sensors := []topology.RouterID{
		res.Topo.AS(res.Stubs[0]).Routers[0],
		res.Topo.AS(res.Stubs[1]).Routers[0],
		res.Topo.AS(res.Stubs[2]).Routers[0],
		res.Topo.AS(res.Stubs[3]).Routers[0],
	}
	env, err := experiment.NewEnv(res.Topo, sensors)
	if err != nil {
		t.Fatal(err)
	}
	runEngineEquivTrials(t, env, res.Cores[0], 99, 48, true)
}
