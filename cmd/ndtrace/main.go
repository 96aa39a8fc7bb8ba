// Command ndtrace explores the simulated research internetwork the way an
// operator would: place sensors, look at their traceroutes, inject
// failures, see what breaks or reroutes, and optionally export the episode
// as a scenario file for cmd/netdiagnoser or diagnose it on the spot.
//
// Usage:
//
//	ndtrace [-seed S] [-sensors N] [-fail X] [-misconfig] [-diagnose] [-export file.json]
//
// With no fault flags it prints the healthy full mesh. With -fail X it
// injects X simultaneous link failures (resampled until some sensor pair
// actually breaks); -misconfig injects a BGP export-filter
// misconfiguration instead.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"netdiag/internal/core"
	"netdiag/internal/experiment"
	"netdiag/internal/netsim"
	"netdiag/internal/scenario"
	"netdiag/internal/topology"
)

func main() {
	var (
		seed      = flag.Int64("seed", 2007, "simulation seed")
		sensors   = flag.Int("sensors", 6, "number of sensors at random stubs")
		failLinks = flag.Int("fail", 0, "inject this many simultaneous link failures")
		misconfig = flag.Bool("misconfig", false, "inject a BGP export-filter misconfiguration")
		diagnose  = flag.Bool("diagnose", false, "run ND-bgpigp on the episode and print the hypothesis")
		export    = flag.String("export", "", "write the episode as a scenario JSON file")
		par       = flag.Int("parallelism", 1, "worker count for convergence and mesh probing (0 = GOMAXPROCS); output is identical at any setting")
	)
	flag.Parse()

	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(*seed))
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed + 1))
	placed, _, err := experiment.PlaceSensors(res, experiment.PlaceRandomStubs, *sensors, rng)
	if err != nil {
		fatal(err)
	}
	env, err := experiment.NewEnv(res.Topo, placed, netsim.WithParallelism(*par))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("placed %d sensors; %d probed links; diagnosability %.2f\n",
		len(env.Sensors), len(env.PhysProbed), core.Diagnosability(env.Measurements().Before))
	for i, s := range env.Sensors {
		r := res.Topo.Router(s)
		fmt.Printf("  sensor %d: %s (%s, %s)\n", i, r.Name, r.Addr, res.Topo.AS(r.AS).Name)
	}

	if *failLinks == 0 && !*misconfig {
		fmt.Println("\nhealthy mesh:")
		for i := range env.BeforeMesh.Paths {
			for j, p := range env.BeforeMesh.Paths[i] {
				if i != j && i < j {
					fmt.Printf("  %d->%d: %s\n", i, j, p)
				}
			}
		}
		return
	}

	sample := func(rng *rand.Rand) (experiment.Fault, bool) {
		if *misconfig {
			return env.SampleMisconfig(rng)
		}
		return env.SampleLinkFault(rng, *failLinks)
	}
	asx := res.Cores[0]
	var td *experiment.TrialData
	for attempt := 0; attempt < 200; attempt++ {
		f, ok := sample(rng)
		if !ok {
			fatal(fmt.Errorf("no fault candidates for this placement"))
		}
		data, err := env.RunTrial(f, asx, nil, nil)
		if err == experiment.ErrNoImpact {
			continue
		}
		if err != nil {
			fatal(err)
		}
		td = data
		describeFault(res.Topo, f)
		break
	}
	if td == nil {
		fatal(fmt.Errorf("no impactful fault found in 200 attempts"))
	}

	fmt.Println("\nimpact:")
	for _, p := range td.Meas.After {
		if !p.OK {
			fmt.Printf("  %d->%d FAILS\n", p.SrcSensor, p.DstSensor)
		}
	}
	fmt.Printf("AS-X (%s) observed %d withdrawal(s), %d IGP link-down direction(s)\n",
		res.Topo.AS(asx).Name, len(td.Routing.Withdrawals), len(td.Routing.IGPDownLinks))

	if *diagnose {
		r, err := core.Run(td.Meas, core.Options{LogicalLinks: true, UseReroutes: true, Routing: td.Routing})
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nND-bgpigp hypothesis:")
		for _, h := range r.Hypothesis {
			fmt.Printf("  %s -> %s (ASes %v)\n",
				core.Display(h.Link.From), core.Display(h.Link.To), h.ASes)
		}
		fmt.Printf("ground truth: %v\n", td.FailedLinks)
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := scenario.FromMeasurements(td.Meas, td.Routing).Write(f); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote scenario to %s (try: go run ./cmd/netdiagnoser -algo nd-bgpigp %s)\n",
			*export, *export)
	}
}

func describeFault(topo *topology.Topology, f experiment.Fault) {
	fmt.Println("\ninjected fault:")
	for _, id := range f.Links {
		l := topo.Link(id)
		fmt.Printf("  link down: %s -- %s\n", topo.Router(l.A).Name, topo.Router(l.B).Name)
	}
	for _, r := range f.Routers {
		fmt.Printf("  router down: %s\n", topo.Router(r).Name)
	}
	for _, flt := range f.Filters {
		fmt.Printf("  export filter: %s no longer announces %s to %s\n",
			topo.Router(flt.Router).Name, flt.Prefix, topo.Router(flt.Peer).Name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ndtrace:", err)
	os.Exit(1)
}
