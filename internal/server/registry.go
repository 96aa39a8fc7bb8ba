// Package server implements ndserve, the long-running diagnosis service:
// named simulation scenarios converged once into warm snapshots, an
// HTTP/JSON API that diagnoses injected failures against those snapshots,
// singleflight coalescing of identical in-flight requests, a bounded
// admission queue with load shedding, and graceful drain on shutdown.
//
// The serving pipeline reuses the library layers unchanged — netsim for
// the world model, experiment for the converged scenario (Env) and the
// measurement adapters, the netdiag facade for the algorithms — so a
// served diagnosis is byte-identical to the equivalent one-shot
// netdiagnoser CLI run (pinned by tests).
package server

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"netdiag/internal/experiment"
	"netdiag/internal/topology"
)

// Scenario is one registered simulation world: a topology, the sensor
// overlay probing it, and the troubleshooter AS whose control-plane view
// the nd-bgpigp and nd-lg algorithms use. Scenarios are immutable once
// built; the Store converges each one exactly once into a warm Snapshot.
type Scenario struct {
	Name    string
	Topo    *topology.Topology
	Sensors []topology.RouterID
	// ASX is the troubleshooter AS (paper §3.3): the AS whose IGP
	// link-down events, BGP withdrawals and Looking Glass queries feed the
	// routing-aware algorithms.
	ASX topology.ASN
}

// Builder constructs a Scenario on first use, so registering a scenario
// (including the heavyweight research topologies) costs nothing until a
// request or the warm-up loop asks for it.
type Builder func() (*Scenario, error)

// Registry maps scenario names to builders and memoizes the built
// scenarios. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	builders map[string]Builder
	built    map[string]*Scenario
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{builders: map[string]Builder{}, built: map[string]*Scenario{}}
}

// Register adds a named scenario builder. Registering an empty name or a
// duplicate is an error.
func (r *Registry) Register(name string, b Builder) error {
	if name == "" {
		return fmt.Errorf("server: scenario name must be non-empty")
	}
	if b == nil {
		return fmt.Errorf("server: scenario %q has a nil builder", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.builders[name]; ok {
		return fmt.Errorf("server: scenario %q already registered", name)
	}
	r.builders[name] = b
	return nil
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.builders[name]
	return ok
}

// Names returns the registered scenario names in sorted order — the
// /v1/scenarios listing and the warm-up loop both iterate this, so every
// externally visible ordering is deterministic.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.builders))
	for n := range r.builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the built scenario for name, invoking its builder on first
// use. The build runs outside the registry lock — a heavyweight research
// topology must not block Register/Names/Has for its whole construction —
// so two concurrent first requests may both build; the first to store
// wins and the loser adopts its instance, keeping the memoized scenario
// unique.
func (r *Registry) Get(name string) (*Scenario, error) {
	r.mu.Lock()
	if s, ok := r.built[name]; ok {
		r.mu.Unlock()
		return s, nil
	}
	b, ok := r.builders[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: unknown scenario %q", name)
	}
	s, err := b()
	if err != nil {
		return nil, fmt.Errorf("server: building scenario %q: %w", name, err)
	}
	if err := validateScenario(name, s); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.built[name]; ok {
		return prev, nil
	}
	r.built[name] = s
	return s, nil
}

func validateScenario(name string, s *Scenario) error {
	if s == nil || s.Topo == nil {
		return fmt.Errorf("server: scenario %q built without a topology", name)
	}
	if len(s.Sensors) < 2 {
		return fmt.Errorf("server: scenario %q has %d sensors, need at least 2", name, len(s.Sensors))
	}
	if s.Name == "" {
		s.Name = name
	}
	return nil
}

// Fig1Scenario builds the paper's Figure 1 single-AS tree with sensors
// s1, s2, s3.
func Fig1Scenario() (*Scenario, error) {
	fig := topology.BuildFig1()
	return &Scenario{
		Name:    "fig1",
		Topo:    fig.Topo,
		Sensors: []topology.RouterID{fig.S1, fig.S2, fig.S3},
		ASX:     fig.Topo.ASNumbers()[0],
	}, nil
}

// Fig2Scenario builds the paper's Figure 2 multi-AS example with sensors
// in the stub ASes A, B, C and AS-X as the troubleshooter.
func Fig2Scenario() (*Scenario, error) {
	fig := topology.BuildFig2()
	return &Scenario{
		Name:    "fig2",
		Topo:    fig.Topo,
		Sensors: []topology.RouterID{fig.S1, fig.S2, fig.S3},
		ASX:     fig.ASX,
	}, nil
}

// ResearchScenario returns a builder for the paper-scale research
// topology ("research-<seed>"): sensors at randomly chosen stub ASes (the
// paper's worst-case placement) and the first core AS as troubleshooter.
// The placement derives deterministically from the seed.
func ResearchScenario(seed int64, sensors int) Builder {
	return func() (*Scenario, error) {
		res, err := topology.GenerateResearch(topology.DefaultResearchConfig(seed))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		placed, _, err := experiment.PlaceSensors(res, experiment.PlaceRandomStubs, sensors, rng)
		if err != nil {
			return nil, err
		}
		return &Scenario{
			Name:    fmt.Sprintf("research-%d", seed),
			Topo:    res.Topo,
			Sensors: placed,
			ASX:     res.Cores[0],
		}, nil
	}
}

// BuiltinRegistry returns a registry with the paper's two illustrative
// topologies, "fig1" and "fig2" — the default scenario set of ndserve.
func BuiltinRegistry() *Registry {
	r := NewRegistry()
	if err := r.Register("fig1", Fig1Scenario); err != nil {
		panic(err)
	}
	if err := r.Register("fig2", Fig2Scenario); err != nil {
		panic(err)
	}
	return r
}
