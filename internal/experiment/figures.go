package experiment

import (
	"fmt"
	"math/rand"
	"sort"

	"netdiag/internal/core"
	"netdiag/internal/metrics"
	"netdiag/internal/netsim"
	"netdiag/internal/pool"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// Config parameterizes one figure reproduction. The defaults mirror the
// paper: 10 sensors at random stubs, 10 placements with 100 impactful
// failures each (1000 runs).
type Config struct {
	Seed                 int64
	NumSensors           int
	Placements           int
	FailuresPerPlacement int
	// MaxTriesFactor bounds fault resampling: a placement gives up after
	// FailuresPerPlacement*MaxTriesFactor non-impactful samples.
	MaxTriesFactor int
	// Parallelism bounds the worker pool shared by environment setup,
	// simulated trials and network convergence. 1 runs everything
	// sequentially; 0 picks runtime.GOMAXPROCS(0).
	// Figure output is byte-identical at every parallelism level: faults
	// are sampled from seeded per-placement RNGs independent of
	// scheduling, and results are collected in deterministic
	// (placement, trial) order.
	Parallelism int
	// Telemetry, when non-nil, receives the whole pipeline's metrics:
	// per-trial latency ("experiment.trial_ns") and trial counters here,
	// plus the netsim/igp/bgp/probe/pool metrics of every environment the
	// run converges. Telemetry never changes figure output — the
	// determinism tests pin CSV byte-identity with and without it.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the paper's experiment scale.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                 seed,
		NumSensors:           10,
		Placements:           10,
		FailuresPerPlacement: 100,
		MaxTriesFactor:       12,
	}
}

// parallelism resolves the configured worker count.
func (c Config) parallelism() int { return pool.Size(c.Parallelism) }

// Scaled returns a copy with placements and failures scaled down by
// 1/factor (at least 1 each), for quick runs and benchmarks.
func (c Config) Scaled(factor int) Config {
	if factor <= 1 {
		return c
	}
	c.Placements = max(1, c.Placements/factor)
	c.FailuresPerPlacement = max(1, c.FailuresPerPlacement/factor)
	return c
}

// Series is one line of a figure.
type Series struct {
	Name string
	X, Y []float64
}

// Point is one scatter point.
type Point struct {
	X, Y float64
}

// Figure is the reproduced data behind one of the paper's figures.
type Figure struct {
	ID     string
	Title  string
	CDFs   map[string]*metrics.Dist
	Series []Series
	Points []Point
	Notes  []string
}

func newFigure(id, title string) *Figure {
	return &Figure{ID: id, Title: title, CDFs: map[string]*metrics.Dist{}}
}

func (f *Figure) dist(name string) *metrics.Dist {
	d := f.CDFs[name]
	if d == nil {
		d = &metrics.Dist{}
		f.CDFs[name] = d
	}
	return d
}

// hooks configures the per-placement setup of a scenario run.
type hooks struct {
	// placement defaults to PlaceRandomStubs.
	placement Placement
	// asx picks the troubleshooter AS (nil: the first core AS).
	asx func(env *Env) topology.ASN
	// blocked picks traceroute-blocking ASes per placement (default none).
	blocked func(env *Env, asx topology.ASN, rng *rand.Rand) map[topology.ASN]bool
	// lgAvail picks Looking-Glass-operating ASes (nil = all).
	lgAvail func(env *Env, asx topology.ASN, rng *rand.Rand) map[topology.ASN]bool
	// sample draws a fault.
	sample func(env *Env, rng *rand.Rand) (Fault, bool)
}

// visit receives every impactful trial. The runner always invokes it from
// a single goroutine, in deterministic (placement, trial) order —
// implementations need no synchronization at any parallelism level.
type visit func(placement int, env *Env, td *TrialData)

// placementRun is one placement's prepared state: the converged
// environment plus the RNG that continues driving its fault sampling.
type placementRun struct {
	env              *Env
	asx              topology.ASN
	blocked, lgAvail map[topology.ASN]bool
	rng              *rand.Rand
}

// scenarioMetrics carries the harness-level telemetry of one runScenario
// call; nil disables everything, including the per-trial clock reads.
type scenarioMetrics struct {
	trialNS         *telemetry.Histogram
	trialsRun       *telemetry.Counter
	trialsImpactful *telemetry.Counter
	pool            *pool.Metrics
}

func newScenarioMetrics(r *telemetry.Registry) *scenarioMetrics {
	if r == nil {
		return nil
	}
	return &scenarioMetrics{
		trialNS:         r.Histogram("experiment.trial_ns", telemetry.DurationBuckets),
		trialsRun:       r.Counter("experiment.trials_run"),
		trialsImpactful: r.Counter("experiment.trials_impactful"),
		pool:            pool.NewMetrics(r),
	}
}

func (m *scenarioMetrics) poolMetrics() *pool.Metrics {
	if m == nil {
		return nil
	}
	return m.pool
}

// trial times and counts one RunTrial invocation.
func (m *scenarioMetrics) trial(run func() (*TrialData, error)) (*TrialData, error) {
	if m == nil {
		return run()
	}
	start := telemetry.Now()
	td, err := run()
	m.trialNS.Observe(int64(telemetry.Since(start)))
	m.trialsRun.Inc()
	if err == nil {
		m.trialsImpactful.Inc()
	}
	return td, err
}

// runScenario executes cfg.Placements placements of the hooks' scenario on
// one generated research topology, delivering impactful trials to v.
//
// Parallel execution is deterministic by construction: each placement's
// faults are drawn sequentially from its own seeded RNG (scheduling never
// touches an RNG), the trials of a placement run concurrently on the
// worker pool as pure functions of their fault, and v receives the first
// FailuresPerPlacement impactful trials of each placement in sampling
// order. The visit sequence — and therefore every figure and CSV — is
// byte-identical from parallelism 1 to N.
func runScenario(cfg Config, h hooks, v visit) error {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(cfg.Seed))
	if err != nil {
		return err
	}
	if h.asx == nil {
		h.asx = func(*Env) topology.ASN { return res.Cores[0] }
	}
	workers := cfg.parallelism()
	sm := newScenarioMetrics(cfg.Telemetry)

	// Phase 1: build every placement's environment (the expensive
	// full-network convergence + pre-failure mesh) on the pool.
	runs := make([]*placementRun, cfg.Placements)
	err = pool.ForEachM(nil, workers, cfg.Placements, func(p int) error {
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(p)*7919))
		sensors, _, err := PlaceSensors(res, h.placement, cfg.NumSensors, rng)
		if err != nil {
			return err
		}
		env, err := NewEnv(res.Topo, sensors,
			netsim.WithParallelism(workers), netsim.WithTelemetry(cfg.Telemetry))
		if err != nil {
			return err
		}
		asx := h.asx(env)
		pr := &placementRun{env: env, asx: asx, rng: rng}
		if h.blocked != nil {
			pr.blocked = h.blocked(env, asx, rng)
		}
		if h.lgAvail != nil {
			pr.lgAvail = h.lgAvail(env, asx, rng)
		}
		runs[p] = pr
		return nil
	}, sm.poolMetrics())
	if err != nil {
		return err
	}

	// Phase 2: per placement, sample faults in waves and run the wave's
	// trials concurrently. Sampling stays sequential on the placement RNG;
	// results are scanned in sampling order, so the selected trials are
	// exactly the ones a sequential run would have kept.
	maxTries := cfg.FailuresPerPlacement * cfg.MaxTriesFactor
	waveSize := workers * 2
	if waveSize < 1 {
		waveSize = 1
	}
	for p := 0; p < cfg.Placements; p++ {
		pr := runs[p]
		got, tries := 0, 0
		exhausted := false
		for got < cfg.FailuresPerPlacement && tries < maxTries && !exhausted {
			var wave []Fault
			for len(wave) < waveSize && tries+len(wave) < maxTries {
				f, ok := h.sample(pr.env, pr.rng)
				if !ok {
					exhausted = true
					break
				}
				wave = append(wave, f)
			}
			results := make([]*TrialData, len(wave))
			err := pool.ForEachM(nil, workers, len(wave), func(i int) error {
				td, err := sm.trial(func() (*TrialData, error) {
					return pr.env.RunTrial(wave[i], pr.asx, pr.blocked, pr.lgAvail)
				})
				if err == ErrNoImpact {
					return nil
				}
				if err != nil {
					return err
				}
				results[i] = td
				return nil
			}, sm.poolMetrics())
			if err != nil {
				return err
			}
			tries += len(wave)
			for _, td := range results {
				if td == nil {
					continue
				}
				if got >= cfg.FailuresPerPlacement {
					break // speculative extra beyond the quota
				}
				got++
				v(p, pr.env, td)
			}
		}
	}
	return nil
}

// linkSample returns a sampler for x simultaneous link failures.
func linkSample(x int) func(*Env, *rand.Rand) (Fault, bool) {
	return func(env *Env, rng *rand.Rand) (Fault, bool) { return env.SampleLinkFault(rng, x) }
}

// misconfigSample draws one export-filter misconfiguration.
func misconfigSample(env *Env, rng *rand.Rand) (Fault, bool) { return env.SampleMisconfig(rng) }

// misconfigPlusLinkSample draws a misconfiguration plus one link failure.
func misconfigPlusLinkSample(env *Env, rng *rand.Rand) (Fault, bool) {
	mc, ok := env.SampleMisconfig(rng)
	if !ok {
		return Fault{}, false
	}
	lf, ok := env.SampleLinkFault(rng, 1)
	if !ok {
		return Fault{}, false
	}
	mc.Links = lf.Links
	return mc, true
}

// linkSensitivity computes link-level sensitivity of a result.
func linkSensitivity(td *TrialData, r *core.Result) float64 {
	return metrics.Sensitivity(td.FailedLinks, r.PhysLinks())
}

func linkSpecificity(env *Env, td *TrialData, r *core.Result) float64 {
	return metrics.Specificity(env.E, td.FailedLinks, r.PhysLinks())
}

func mustRun(m *core.Measurements, opts core.Options) *core.Result {
	r, err := core.Run(m, opts)
	if err != nil {
		panic(fmt.Sprintf("experiment: diagnosis failed on valid measurements: %v", err))
	}
	return r
}

func tomoOpts() core.Options { return core.Options{} }
func edgeOpts() core.Options { return core.Options{LogicalLinks: true, UseReroutes: true} }
func bgpigpOpts(td *TrialData) core.Options {
	return core.Options{LogicalLinks: true, UseReroutes: true, Routing: td.Routing}
}
func ndlgOpts(td *TrialData) core.Options {
	return core.Options{
		LogicalLinks: true, UseReroutes: true,
		Routing: td.Routing, LG: td.LG, KeepUnidentified: true,
	}
}

// Figure5 reproduces the diagnosability-vs-placement study: D(G) as a
// function of the number of sensors for the four placement strategies.
func Figure5(cfg Config) (*Figure, error) {
	fig := newFigure("fig5", "Sensor placement and diagnosability")
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(cfg.Seed))
	if err != nil {
		return nil, err
	}
	ns := []int{4, 6, 8, 10, 14, 18, 24, 30, 40, 50}
	reps := max(1, cfg.Placements/3)
	kinds := []Placement{PlaceSameAS, PlaceDistantAS, PlaceDistantSplit, PlaceRandomStubs}
	// Every (kind, n, rep) cell is an independent environment build; fan
	// them out and accumulate in index order so the averages (and their
	// floating-point rounding) match the sequential run exactly.
	diag := make([]float64, len(kinds)*len(ns)*reps)
	err = pool.ForEachM(nil, cfg.parallelism(), len(diag), func(t int) error {
		rep := t % reps
		n := ns[(t/reps)%len(ns)]
		kind := kinds[t/(reps*len(ns))]
		rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(rep)*17 + int64(n)))
		sensors, _, err := PlaceSensors(res, kind, n, rng)
		if err != nil {
			return err
		}
		env, err := NewEnv(res.Topo, sensors, netsim.WithTelemetry(cfg.Telemetry))
		if err != nil {
			return err
		}
		diag[t] = core.Diagnosability(env.Measurements().Before)
		return nil
	}, pool.NewMetrics(cfg.Telemetry))
	if err != nil {
		return nil, err
	}
	for ki, kind := range kinds {
		s := Series{Name: kind.String()}
		for ni, n := range ns {
			sum := 0.0
			for rep := 0; rep < reps; rep++ {
				sum += diag[(ki*len(ns)+ni)*reps+rep]
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, sum/float64(reps))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes,
		"expected shape (paper Fig 5): same AS highest, then distant-AS-split, distant AS, random lowest")
	return fig, nil
}

// Figure6 reproduces the Tomo evaluation: CDFs of sensitivity under 1/2/3
// link failures (top) and under misconfigurations (bottom).
func Figure6(cfg Config) (*Figure, error) {
	fig := newFigure("fig6", "Tomo under different failure scenarios")
	for x := 1; x <= 3; x++ {
		name := fmt.Sprintf("tomo %d-link", x)
		err := runScenario(cfg, hooks{sample: linkSample(x)}, func(_ int, env *Env, td *TrialData) {
			fig.dist(name).Add(linkSensitivity(td, mustRun(td.Meas, tomoOpts())))
		})
		if err != nil {
			return nil, err
		}
	}
	if err := runScenario(cfg, hooks{sample: misconfigSample}, func(_ int, env *Env, td *TrialData) {
		fig.dist("tomo misconfig").Add(linkSensitivity(td, mustRun(td.Meas, tomoOpts())))
	}); err != nil {
		return nil, err
	}
	if err := runScenario(cfg, hooks{sample: misconfigPlusLinkSample}, func(_ int, env *Env, td *TrialData) {
		fig.dist("tomo misconfig+1link").Add(linkSensitivity(td, mustRun(td.Meas, tomoOpts())))
	}); err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"expected shape: sensitivity ~1 for single link failures; much lower for 2-3 failures; ~0 in most misconfiguration instances")
	return fig, nil
}

// Figure7 compares Tomo with ND-edge: sensitivity CDFs under three link
// failures and under a misconfiguration combined with a link failure.
func Figure7(cfg Config) (*Figure, error) {
	fig := newFigure("fig7", "Sensitivity of Tomo and ND-edge")
	if err := runScenario(cfg, hooks{sample: linkSample(3)}, func(_ int, env *Env, td *TrialData) {
		fig.dist("tomo 3-link").Add(linkSensitivity(td, mustRun(td.Meas, tomoOpts())))
		fig.dist("nd-edge 3-link").Add(linkSensitivity(td, mustRun(td.Meas, edgeOpts())))
	}); err != nil {
		return nil, err
	}
	if err := runScenario(cfg, hooks{sample: misconfigPlusLinkSample}, func(_ int, env *Env, td *TrialData) {
		fig.dist("tomo misconfig+1link").Add(linkSensitivity(td, mustRun(td.Meas, tomoOpts())))
		fig.dist("nd-edge misconfig+1link").Add(linkSensitivity(td, mustRun(td.Meas, edgeOpts())))
	}); err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"expected shape: ND-edge sensitivity ~1 almost always; Tomo low under both scenarios")
	return fig, nil
}

// Figure8 reproduces the ND-edge specificity CDFs for a single link
// failure and a single misconfiguration.
func Figure8(cfg Config) (*Figure, error) {
	fig := newFigure("fig8", "Specificity of ND-edge")
	var hsize metrics.Dist
	if err := runScenario(cfg, hooks{sample: linkSample(1)}, func(_ int, env *Env, td *TrialData) {
		r := mustRun(td.Meas, edgeOpts())
		fig.dist("nd-edge 1-link").Add(linkSpecificity(env, td, r))
		hsize.Add(float64(len(r.PhysLinks())))
	}); err != nil {
		return nil, err
	}
	if err := runScenario(cfg, hooks{sample: misconfigSample}, func(_ int, env *Env, td *TrialData) {
		fig.dist("nd-edge misconfig").Add(linkSpecificity(env, td, mustRun(td.Meas, edgeOpts())))
	}); err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"expected shape: specificity > 0.9 for link failures; even higher for misconfigurations",
		fmt.Sprintf("hypothesis size for single link failures: mean %.1f, p90 %.0f, max %.0f links (paper: up to 12)",
			hsize.Mean(), hsize.Quantile(0.90), hsize.Quantile(1.0)))
	return fig, nil
}

// Figure9 reproduces the diagnosability-vs-specificity scatter: the number
// of probing sources varies, and each impactful single-link-failure trial
// contributes one (D, specificity) point for ND-edge.
func Figure9(cfg Config) (*Figure, error) {
	fig := newFigure("fig9", "Diagnosability vs specificity")
	type bucket struct {
		pts []Point
	}
	counts := []int{5, 10, 20, 35, 55, 80}
	buckets := make([]bucket, len(counts))
	for i, n := range counts {
		sub := cfg
		sub.NumSensors = n
		sub.Placements = max(1, cfg.Placements/3)
		sub.FailuresPerPlacement = max(1, cfg.FailuresPerPlacement/10)
		err := runScenario(sub, hooks{sample: linkSample(1)}, func(_ int, env *Env, td *TrialData) {
			d := core.Diagnosability(env.Measurements().Before)
			sp := linkSpecificity(env, td, mustRun(td.Meas, edgeOpts()))
			buckets[i].pts = append(buckets[i].pts, Point{X: d, Y: sp})
		})
		if err != nil {
			return nil, err
		}
	}
	for _, b := range buckets {
		fig.Points = append(fig.Points, b.pts...)
	}
	fig.Notes = append(fig.Notes,
		"expected shape: specificity grows with diagnosability; always above ~0.75")
	return fig, nil
}

// Figure10 compares ND-edge and ND-bgpigp under three link failures, with
// the troubleshooter at a core AS.
func Figure10(cfg Config) (*Figure, error) {
	fig := newFigure("fig10", "ND-edge vs ND-bgpigp (three link failures)")
	if err := runScenario(cfg, hooks{sample: linkSample(3)}, func(_ int, env *Env, td *TrialData) {
		edge := mustRun(td.Meas, edgeOpts())
		bgpigp := mustRun(td.Meas, bgpigpOpts(td))
		fig.dist("nd-edge sensitivity").Add(linkSensitivity(td, edge))
		fig.dist("nd-bgpigp sensitivity").Add(linkSensitivity(td, bgpigp))
		fig.dist("nd-edge specificity").Add(linkSpecificity(env, td, edge))
		fig.dist("nd-bgpigp specificity").Add(linkSpecificity(env, td, bgpigp))
	}); err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"expected shape: equal sensitivity (~1); ND-bgpigp specificity >= ND-edge")
	return fig, nil
}

// SampleBlocked picks the traceroute-blocking ASes: a fraction fb of the
// probed-path ASes, never blocking sensor stubs or the troubleshooter.
func SampleBlocked(fb float64) func(*Env, topology.ASN, *rand.Rand) map[topology.ASN]bool {
	return func(env *Env, asx topology.ASN, rng *rand.Rand) map[topology.ASN]bool {
		sensorAS := map[topology.ASN]bool{}
		for _, a := range env.SensorASes {
			sensorAS[a] = true
		}
		var cands []topology.ASN
		for as := range env.BeforeMesh.CoveredASes() {
			if !sensorAS[as] && as != asx {
				cands = append(cands, as)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		k := int(fb*float64(len(cands)) + 0.5)
		blocked := map[topology.ASN]bool{}
		for _, idx := range rng.Perm(len(cands))[:k] {
			blocked[cands[idx]] = true
		}
		return blocked
	}
}

// SampleLGAvail picks the fraction of covered ASes operating Looking
// Glasses (the troubleshooter's AS is implicitly always available).
func SampleLGAvail(frac float64) func(*Env, topology.ASN, *rand.Rand) map[topology.ASN]bool {
	return func(env *Env, _ topology.ASN, rng *rand.Rand) map[topology.ASN]bool {
		var cands []topology.ASN
		for as := range env.BeforeMesh.CoveredASes() {
			cands = append(cands, as)
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		k := int(frac*float64(len(cands)) + 0.5)
		avail := map[topology.ASN]bool{}
		for _, idx := range rng.Perm(len(cands))[:k] {
			avail[cands[idx]] = true
		}
		return avail
	}
}

// Figure11 reproduces the blocked-traceroute study: average AS-sensitivity
// and AS-specificity of ND-LG and ND-bgpigp as the fraction of blocking
// ASes grows, with every AS operating a Looking Glass.
func Figure11(cfg Config) (*Figure, error) {
	fig := newFigure("fig11", "The effect of blocked traceroutes")
	fbs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	lgSens := Series{Name: "nd-lg AS-sensitivity"}
	lgSpec := Series{Name: "nd-lg AS-specificity"}
	bgSens := Series{Name: "nd-bgpigp AS-sensitivity"}
	bgSpec := Series{Name: "nd-bgpigp AS-specificity"}
	for _, fb := range fbs {
		var sLG, pLG, sBG, pBG metrics.Dist
		err := runScenario(cfg, hooks{
			blocked: SampleBlocked(fb),
			sample:  linkSample(1),
		}, func(_ int, env *Env, td *TrialData) {
			lg := mustRun(td.Meas, ndlgOpts(td))
			bg := mustRun(td.Meas, bgpigpOpts(td))
			sLG.Add(metrics.ASSensitivity(td.FailedASes, lg.ASes()))
			pLG.Add(metrics.ASSpecificity(td.CoveredASes, td.FailedASes, lg.ASes()))
			sBG.Add(metrics.ASSensitivity(td.FailedASes, bg.ASes()))
			pBG.Add(metrics.ASSpecificity(td.CoveredASes, td.FailedASes, bg.ASes()))
		})
		if err != nil {
			return nil, err
		}
		lgSens.X = append(lgSens.X, fb)
		lgSens.Y = append(lgSens.Y, sLG.Mean())
		lgSpec.X = append(lgSpec.X, fb)
		lgSpec.Y = append(lgSpec.Y, pLG.Mean())
		bgSens.X = append(bgSens.X, fb)
		bgSens.Y = append(bgSens.Y, sBG.Mean())
		bgSpec.X = append(bgSpec.X, fb)
		bgSpec.Y = append(bgSpec.Y, pBG.Mean())
	}
	fig.Series = append(fig.Series, lgSens, lgSpec, bgSens, bgSpec)
	fig.Notes = append(fig.Notes,
		"expected shape: ND-LG AS-sensitivity stays ~0.8 across f_b; ND-bgpigp AS-sensitivity tracks ~1-f_b")
	return fig, nil
}

// Figure12 reproduces the Looking-Glass availability study: average
// AS-sensitivity of ND-LG as the fraction of ASes with Looking Glasses
// varies, for three blocking levels; ND-bgpigp gives the horizontal
// baselines.
func Figure12(cfg Config) (*Figure, error) {
	fig := newFigure("fig12", "The effect of Looking Glass servers")
	fracs := []float64{0.05, 0.15, 0.25, 0.5, 0.75, 1.0}
	for _, fb := range []float64{0.25, 0.5, 0.75} {
		lgSeries := Series{Name: fmt.Sprintf("nd-lg fb=%.2f", fb)}
		var baseline metrics.Dist
		for _, frac := range fracs {
			var s metrics.Dist
			err := runScenario(cfg, hooks{
				blocked: SampleBlocked(fb),
				lgAvail: SampleLGAvail(frac),
				sample:  linkSample(1),
			}, func(_ int, env *Env, td *TrialData) {
				lg := mustRun(td.Meas, ndlgOpts(td))
				s.Add(metrics.ASSensitivity(td.FailedASes, lg.ASes()))
				if frac == fracs[0] {
					bg := mustRun(td.Meas, bgpigpOpts(td))
					baseline.Add(metrics.ASSensitivity(td.FailedASes, bg.ASes()))
				}
			})
			if err != nil {
				return nil, err
			}
			lgSeries.X = append(lgSeries.X, frac)
			lgSeries.Y = append(lgSeries.Y, s.Mean())
		}
		fig.Series = append(fig.Series, lgSeries)
		fig.Series = append(fig.Series, Series{
			Name: fmt.Sprintf("nd-bgpigp fb=%.2f", fb),
			X:    []float64{fracs[0], fracs[len(fracs)-1]},
			Y:    []float64{baseline.Mean(), baseline.Mean()},
		})
	}
	fig.Notes = append(fig.Notes,
		"expected shape: steep gain at small LG fractions, diminishing returns past ~50%")
	return fig, nil
}

// RouterFailureStudy reproduces the §5.2 router-failure result: ND-edge
// detects the failed router in every run (H contains at least one of its
// links), with link-level metrics similar to the 3-link-failure case.
func RouterFailureStudy(cfg Config) (*Figure, error) {
	fig := newFigure("router", "ND-edge under router failures")
	detected, total := 0, 0
	err := runScenario(cfg, hooks{
		sample: func(env *Env, rng *rand.Rand) (Fault, bool) { return env.SampleRouterFault(rng) },
	}, func(_ int, env *Env, td *TrialData) {
		edge := mustRun(td.Meas, edgeOpts())
		se := linkSensitivity(td, edge)
		fig.dist("nd-edge sensitivity").Add(se)
		fig.dist("nd-edge specificity").Add(linkSpecificity(env, td, edge))
		total++
		if se > 0 {
			detected++
		}
	})
	if err != nil {
		return nil, err
	}
	rate := 0.0
	if total > 0 {
		rate = float64(detected) / float64(total)
	}
	fig.Series = append(fig.Series, Series{Name: "detection rate", X: []float64{0}, Y: []float64{rate}})
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("detected failed router in %d/%d runs (paper: every run)", detected, total))
	return fig, nil
}

// ASLevelStudy reproduces the §5.2 in-text AS-granularity results for
// ND-edge under single link failures.
func ASLevelStudy(cfg Config) (*Figure, error) {
	fig := newFigure("aslevel", "AS-level accuracy of ND-edge")
	exactAS, fpLE1, fnZero, total := 0, 0, 0, 0
	err := runScenario(cfg, hooks{sample: linkSample(1)}, func(_ int, env *Env, td *TrialData) {
		edge := mustRun(td.Meas, edgeOpts())
		hyp := edge.ASes()
		fig.dist("AS-sensitivity").Add(metrics.ASSensitivity(td.FailedASes, hyp))
		fig.dist("AS-specificity").Add(metrics.ASSpecificity(td.CoveredASes, td.FailedASes, hyp))
		failed := map[topology.ASN]bool{}
		for _, a := range td.FailedASes {
			failed[a] = true
		}
		fp, fn := 0, len(td.FailedASes)
		for _, a := range hyp {
			if failed[a] {
				fn--
			} else {
				fp++
			}
		}
		total++
		if fp == 0 && fn == 0 {
			exactAS++
		}
		if fp <= 1 {
			fpLE1++
		}
		if fn == 0 {
			fnZero++
		}
	})
	if err != nil {
		return nil, err
	}
	if total > 0 {
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("exact AS set: %.0f%% (paper: >50%%); <=1 AS false positive: %.0f%% (paper: >90%%); 0 AS false negatives: %.0f%% (paper: >90%%)",
				100*float64(exactAS)/float64(total), 100*float64(fpLE1)/float64(total), 100*float64(fnZero)/float64(total)))
	}
	return fig, nil
}

// ASXPositionStudy reproduces the §5.3 in-text result: ND-bgpigp
// specificity with the troubleshooter at a core AS vs at a stub AS.
func ASXPositionStudy(cfg Config) (*Figure, error) {
	fig := newFigure("asxpos", "Effect of AS-X position on ND-bgpigp")
	run := func(label string, pick func(env *Env) topology.ASN) error {
		return runScenario(cfg, hooks{
			asx:    pick,
			sample: linkSample(3),
		}, func(_ int, env *Env, td *TrialData) {
			r := mustRun(td.Meas, bgpigpOpts(td))
			fig.dist(label + " specificity").Add(linkSpecificity(env, td, r))
			fig.dist(label + " sensitivity").Add(linkSensitivity(td, r))
		})
	}
	// A nil pick keeps runScenario's default troubleshooter, the first
	// core AS.
	if err := run("core AS-X", nil); err != nil {
		return nil, err
	}
	if err := run("stub AS-X", func(env *Env) topology.ASN { return env.SensorASes[0] }); err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"expected shape: same sensitivity; specificity same or higher for a core AS-X")
	return fig, nil
}

// AblationStudy measures the contribution of each NetDiagnoser feature on
// the 3-link-failure workload: logical links, reroute sets, routing data,
// and the beyond-paper partial-traceroute extension.
func AblationStudy(cfg Config) (*Figure, error) {
	fig := newFigure("ablation", "Feature ablation (three link failures)")
	variants := []struct {
		name string
		opts func(td *TrialData) core.Options
	}{
		{"tomo (no features)", func(*TrialData) core.Options { return core.Options{} }},
		{"+logical only", func(*TrialData) core.Options { return core.Options{LogicalLinks: true} }},
		{"+reroutes only", func(*TrialData) core.Options { return core.Options{UseReroutes: true} }},
		{"nd-edge (both)", func(*TrialData) core.Options { return edgeOpts() }},
		{"nd-bgpigp", bgpigpOpts},
		{"nd-bgpigp+partial", func(td *TrialData) core.Options {
			o := bgpigpOpts(td)
			o.UsePartialTraces = true
			return o
		}},
	}
	err := runScenario(cfg, hooks{sample: linkSample(3)}, func(_ int, env *Env, td *TrialData) {
		for _, v := range variants {
			r := mustRun(td.Meas, v.opts(td))
			fig.dist(v.name + " sens").Add(linkSensitivity(td, r))
			fig.dist(v.name + " spec").Add(linkSpecificity(env, td, r))
		}
	})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, "reroute information drives sensitivity; routing data and partial traces drive specificity")
	return fig, nil
}
