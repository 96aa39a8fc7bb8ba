package experiment

import (
	"fmt"
	"math/rand"
	"sort"

	"netdiag/internal/core"
	"netdiag/internal/metrics"
	"netdiag/internal/topology"
)

// This file holds the studies that go beyond the paper's figures: the
// §3.1 logical-link granularity (scalability) comparison and the §2.2
// Paris-traceroute multipath-discovery study.

// ScalabilityStudy quantifies the §3.1 trade-off between per-neighbor and
// per-prefix logical links: the size of the expanded diagnosis graph and
// the accuracy of ND-edge under single-prefix misconfigurations — the
// failure mode where granularity matters, since a filter on one prefix is
// invisible at per-neighbor granularity whenever another prefix towards
// the same out-neighbor keeps working.
func ScalabilityStudy(cfg Config) (*Figure, error) {
	fig := newFigure("scalability", "Logical-link granularity: per-neighbor vs per-prefix")
	var physLinks, perNeighbor, perPrefix metrics.Dist
	err := runScenario(cfg, hooks{
		sample: func(env *Env, rng *rand.Rand) (Fault, bool) {
			return env.SampleMisconfigSinglePrefix(rng)
		},
	}, func(_ int, env *Env, td *TrialData) {
		_, physN := core.ExpandedSize(td.Meas, false)
		// Count the unexpanded graph via the raw measurement links.
		raw := map[core.Link]bool{}
		for _, p := range td.Meas.Before {
			for _, l := range p.Links() {
				raw[l] = true
			}
		}
		for _, p := range td.Meas.After {
			for _, l := range p.Links() {
				raw[l] = true
			}
		}
		_, prefN := core.ExpandedSize(td.Meas, true)
		physLinks.Add(float64(len(raw)))
		perNeighbor.Add(float64(physN))
		perPrefix.Add(float64(prefN))

		neigh := mustRun(td.Meas, edgeOpts())
		prefOpts := edgeOpts()
		prefOpts.PerPrefixLogical = true
		pref := mustRun(td.Meas, prefOpts)
		fig.dist("per-neighbor sens").Add(linkSensitivity(td, neigh))
		fig.dist("per-prefix sens").Add(linkSensitivity(td, pref))
		fig.dist("per-neighbor spec").Add(linkSpecificity(env, td, neigh))
		fig.dist("per-prefix spec").Add(linkSpecificity(env, td, pref))
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series,
		Series{Name: "graph links (physical)", X: []float64{0}, Y: []float64{physLinks.Mean()}},
		Series{Name: "graph links (per-neighbor)", X: []float64{0}, Y: []float64{perNeighbor.Mean()}},
		Series{Name: "graph links (per-prefix)", X: []float64{0}, Y: []float64{perPrefix.Mean()}},
	)
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"mean graph size: %.0f physical -> %.0f per-neighbor -> %.0f per-prefix links; accuracy comparable (the paper's argument for per-neighbor granularity)",
		physLinks.Mean(), perNeighbor.Mean(), perPrefix.Mean()))
	return fig, nil
}

// ParisStudy measures what Paris-traceroute-style multipath discovery
// (§2.2) adds to the inferred graph: the probed-link universe and the
// diagnosability with and without enumerating equal-cost paths. It runs on
// the dual-hub tier-2 topology variant, where ECMP actually occurs, with
// tier-2 (distant-AS) and random stub placements.
func ParisStudy(cfg Config) (*Figure, error) {
	fig := newFigure("paris", "Multipath (Paris traceroute) topology discovery")
	// Use the dual-hub tier-2 variant: the paper's single-hub topology has
	// no equal-cost paths, so multipath discovery would be a no-op.
	tcfg := topology.DefaultResearchConfig(cfg.Seed)
	tcfg.DualHubTier2 = true
	res, err := topology.GenerateResearch(tcfg)
	if err != nil {
		return nil, err
	}
	singleE := Series{Name: "probed links (single path)"}
	multiE := Series{Name: "probed links (all ECMP paths)"}
	singleD := Series{Name: "diagnosability (single path)"}
	multiD := Series{Name: "diagnosability (all ECMP paths)"}

	for rep := 0; rep < max(2, cfg.Placements/2); rep++ {
		for _, kind := range []Placement{PlaceDistantAS, PlaceRandomStubs} {
			rng := rand.New(rand.NewSource(cfg.Seed*97 + int64(rep)))
			sensors, _, err := PlaceSensors(res, kind, cfg.NumSensors, rng)
			if err != nil {
				return nil, err
			}
			env, err := NewEnv(res.Topo, sensors)
			if err != nil {
				return nil, err
			}
			single := env.Measurements().Before
			multi := env.MultiPathTracePaths(16)
			x := float64(len(env.Sensors))
			if kind == PlaceDistantAS {
				x = -x // mark the distant-AS placement by sign in the CSV
			}
			singleE.X = append(singleE.X, x)
			singleE.Y = append(singleE.Y, float64(countLinks(single)))
			multiE.X = append(multiE.X, x)
			multiE.Y = append(multiE.Y, float64(countLinks(multi)))
			singleD.X = append(singleD.X, x)
			singleD.Y = append(singleD.Y, core.Diagnosability(single))
			multiD.X = append(multiD.X, x)
			multiD.Y = append(multiD.Y, core.Diagnosability(multi))
		}
	}
	fig.Series = append(fig.Series, singleE, multiE, singleD, multiD)
	fig.Notes = append(fig.Notes,
		"negative x marks the distant-AS placement (sensors inside dual-hub tier-2s, dense ECMP); multipath discovery can only grow the probed universe")
	return fig, nil
}

func countLinks(paths []*core.TracePath) int {
	set := map[core.Link]bool{}
	for _, p := range paths {
		for _, l := range p.Links() {
			set[l] = true
		}
	}
	return len(set)
}

// MultiPathTracePaths enumerates every ECMP forwarding path between each
// sensor pair on the healthy network, as a Paris-traceroute measurement
// campaign would discover them.
func (e *Env) MultiPathTracePaths(limitPerPair int) []*core.TracePath {
	var out []*core.TracePath
	for i, a := range e.Sensors {
		for j, b := range e.Sensors {
			if i == j {
				continue
			}
			for _, p := range e.Net.AllPaths(a, b, limitPerPair) {
				tp := &core.TracePath{SrcSensor: i, DstSensor: j, OK: p.OK}
				for _, h := range p.Hops {
					tp.Hops = append(tp.Hops, core.Hop{Node: core.Node(h.Addr), AS: h.AS})
				}
				out = append(out, tp)
			}
		}
	}
	return out
}

// SCFSStudy quantifies §2.2's argument for the multi-source formulation:
// Duffield's SCFS assumes the paths from each source form a tree, which
// per-destination interdomain routing does not guarantee, and even where
// it holds, per-source diagnosis misses failures that only cross-source
// evidence pins down. For single link failures the study reports how often
// the tree assumption holds, and the accuracy of the union of per-source
// SCFS hypotheses versus Tomo on the same measurements.
func SCFSStudy(cfg Config) (*Figure, error) {
	fig := newFigure("scfs", "SCFS (single-source trees) vs Tomo")
	treeOK, treeTotal := 0, 0
	err := runScenario(cfg, hooks{sample: linkSample(1)}, func(_ int, env *Env, td *TrialData) {
		// Group before/after paths by source sensor.
		bySource := map[int][]*core.TracePath{}
		afterOK := map[[2]int]bool{}
		for _, p := range td.Meas.After {
			afterOK[[2]int{p.SrcSensor, p.DstSensor}] = p.OK
		}
		for _, p := range td.Meas.Before {
			// SCFS sees the pre-failure tree with post-failure status.
			cp := *p
			cp.OK = afterOK[[2]int{p.SrcSensor, p.DstSensor}]
			bySource[p.SrcSensor] = append(bySource[p.SrcSensor], &cp)
		}
		union := map[core.Link]bool{}
		for src := 0; src < td.Meas.NumSensors; src++ {
			treeTotal++
			links, err := core.SCFS(bySource[src])
			if err != nil {
				continue // tree assumption violated for this source
			}
			treeOK++
			for _, l := range links {
				union[l] = true
			}
		}
		var scfsHyp []core.Link
		for l := range union {
			scfsHyp = append(scfsHyp, l)
		}
		sort.Slice(scfsHyp, func(i, j int) bool {
			if scfsHyp[i].From != scfsHyp[j].From {
				return scfsHyp[i].From < scfsHyp[j].From
			}
			return scfsHyp[i].To < scfsHyp[j].To
		})
		fig.dist("scfs-union sensitivity").Add(metrics.Sensitivity(td.FailedLinks, scfsHyp))
		fig.dist("scfs-union specificity").Add(metrics.Specificity(env.E, td.FailedLinks, scfsHyp))
		tomo := mustRun(td.Meas, tomoOpts())
		fig.dist("tomo sensitivity").Add(linkSensitivity(td, tomo))
		fig.dist("tomo specificity").Add(linkSpecificity(env, td, tomo))
	})
	if err != nil {
		return nil, err
	}
	if treeTotal > 0 {
		fig.Series = append(fig.Series, Series{
			Name: "tree assumption holds",
			X:    []float64{0},
			Y:    []float64{float64(treeOK) / float64(treeTotal)},
		})
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"single-source paths formed a valid tree in %.0f%% of (trial, source) cases; SCFS is undefined elsewhere (the paper's reason for the multi-source formulation)",
			100*float64(treeOK)/float64(treeTotal)))
	}
	return fig, nil
}

// SkewStudy probes the §6 deployment assumption that all sensors measure
// "at approximately the same time": it re-runs single-link-failure trials
// with a fraction of the post-failure mesh replaced by stale pre-failure
// measurements (sensors whose probes raced the event), and reports how
// ND-edge degrades as the skewed fraction grows.
func SkewStudy(cfg Config) (*Figure, error) {
	fig := newFigure("skew", "Measurement skew robustness (extension)")
	fracs := []float64{0, 0.1, 0.25, 0.5}
	sens := Series{Name: "nd-edge sensitivity"}
	unexplained := Series{Name: "mean unexplained failures"}
	for _, f := range fracs {
		var s, u metrics.Dist
		frac := f
		err := runScenario(cfg, hooks{sample: linkSample(1)}, func(_ int, env *Env, td *TrialData) {
			meas := skewMeasurements(td.Meas, frac)
			r := mustRun(meas, edgeOpts())
			s.Add(metrics.Sensitivity(td.FailedLinks, r.PhysLinks()))
			u.Add(float64(r.UnexplainedFailures))
		})
		if err != nil {
			return nil, err
		}
		sens.X = append(sens.X, f)
		sens.Y = append(sens.Y, s.Mean())
		unexplained.X = append(unexplained.X, f)
		unexplained.Y = append(unexplained.Y, u.Mean())
	}
	fig.Series = append(fig.Series, sens, unexplained)
	fig.Notes = append(fig.Notes,
		"stale probes hide failures (a raced pair looks healthy on its old route, wrongly exonerating links); sensitivity decays as skew grows — the reason §6 requires approximately synchronized rounds")
	return fig, nil
}

// skewMeasurements replaces a deterministic fraction of the after paths
// with their pre-failure measurements, emulating sensors whose probes
// completed before the event.
func skewMeasurements(m *core.Measurements, frac float64) *core.Measurements {
	before := map[[2]int]*core.TracePath{}
	for _, p := range m.Before {
		before[[2]int{p.SrcSensor, p.DstSensor}] = p
	}
	out := &core.Measurements{NumSensors: m.NumSensors, Before: m.Before}
	k := int(frac * float64(len(m.After)))
	for i, p := range m.After {
		// Deterministic spread: every len/k-th path is stale.
		stale := k > 0 && i%max(1, len(m.After)/max(1, k)) == 0 && k > 0
		if stale {
			if bp := before[[2]int{p.SrcSensor, p.DstSensor}]; bp != nil {
				cp := *bp
				out.After = append(out.After, &cp)
				continue
			}
		}
		out.After = append(out.After, p)
	}
	return out
}
