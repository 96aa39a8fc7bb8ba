package server

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"netdiag/internal/experiment"
	"netdiag/internal/netsim"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// Snapshot is a warm, converged scenario: the experiment harness's Env
// (the healthy network, its pre-failure mesh and BGP state, IP-to-AS
// table and sensor prefixes) plus the scenario it was built from.
// Requests never mutate a Snapshot — each one works on a private Fork of
// Net — so one Snapshot serves any number of concurrent diagnoses.
type Snapshot struct {
	*experiment.Env
	Scenario *Scenario

	routerByName map[string]topology.RouterID
}

// Router resolves a router reference from a request: a router name from
// the topology, or a numeric router ID.
func (s *Snapshot) Router(ref string) (topology.RouterID, bool) {
	if id, ok := s.routerByName[ref]; ok {
		return id, true
	}
	if n, err := strconv.Atoi(ref); err == nil && n >= 0 && n < s.Scenario.Topo.NumRouters() {
		return topology.RouterID(n), true
	}
	return 0, false
}

// storeEntry tracks one scenario's convergence: ready closes when snap
// and err are final.
type storeEntry struct {
	ready chan struct{}
	snap  *Snapshot
	err   error
}

// Store owns the warm snapshots. The expensive part of a diagnosis — BGP
// and SPF convergence of the healthy network — is paid once per scenario
// (at startup via WarmAll, or lazily on first request) and every later
// request forks off the warm base. Concurrent Get calls for a converging
// scenario share one convergence (singleflight); a failed convergence is
// cleared so the next request retries it.
type Store struct {
	reg *Registry
	par int

	mu      sync.Mutex
	entries map[string]*storeEntry

	tele          *telemetry.Registry
	warmHits      *telemetry.Counter
	coldConverges *telemetry.Counter
	warmupNS      *telemetry.Histogram
}

// NewStore returns a store over the registry. parallelism bounds the
// workers each scenario's network uses for convergence and meshing (<= 0
// selects GOMAXPROCS); a non-nil telemetry registry receives the
// "server.warm_hits" / "server.cold_converges" counters, the
// "server.warmup_ns" histogram and the simulation-layer metrics. The
// third parameter is ignored; it stays until cmd/ndbench, which passes ""
// there, stops passing it.
func NewStore(reg *Registry, parallelism int, _ string, tele *telemetry.Registry) *Store {
	return &Store{
		reg:           reg,
		par:           parallelism,
		entries:       map[string]*storeEntry{},
		tele:          tele,
		warmHits:      tele.Counter("server.warm_hits"),
		coldConverges: tele.Counter("server.cold_converges"),
		warmupNS:      tele.Histogram("server.warmup_ns", telemetry.DurationBuckets),
	}
}

// IsWarm reports whether the named scenario has a converged snapshot
// ready right now.
func (s *Store) IsWarm(name string) bool {
	s.mu.Lock()
	e := s.entries[name]
	s.mu.Unlock()
	if e == nil {
		return false
	}
	select {
	case <-e.ready:
		return e.err == nil
	default:
		return false
	}
}

// Get returns the warm snapshot for name, converging it first if no
// request has needed it yet. The convergence itself is not cancellable
// mid-flight (it runs to completion so later requests can reuse it), but
// Get stops waiting and returns ctx.Err() when ctx ends first.
func (s *Store) Get(ctx context.Context, name string) (*Snapshot, error) {
	s.mu.Lock()
	e := s.entries[name]
	if e == nil {
		e = &storeEntry{ready: make(chan struct{})}
		s.entries[name] = e
		s.coldConverges.Inc()
		go s.converge(name, e)
	} else {
		s.warmHits.Inc()
	}
	s.mu.Unlock()

	select {
	case <-e.ready:
		return e.snap, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// converge builds the snapshot for one entry and publishes it. On failure
// the entry is removed first, so a later Get starts a fresh convergence
// instead of serving a pinned error.
func (s *Store) converge(name string, e *storeEntry) {
	start := telemetry.Now()
	snap, err := s.build(name)
	e.snap, e.err = snap, err
	if err != nil {
		s.mu.Lock()
		delete(s.entries, name)
		s.mu.Unlock()
	} else {
		s.warmupNS.Observe(telemetry.Since(start).Nanoseconds())
	}
	close(e.ready)
}

// build converges one scenario into a snapshot: an experiment Env over
// the scenario's sensors (NewEnv gives the network its own SPF cache, so
// request forks reuse unchanged per-AS routing tables) plus the index
// that resolves router names in requests.
func (s *Store) build(name string) (*Snapshot, error) {
	scn, err := s.reg.Get(name)
	if err != nil {
		return nil, err
	}
	env, err := experiment.NewEnv(scn.Topo, scn.Sensors,
		netsim.WithParallelism(s.par), netsim.WithTelemetry(s.tele))
	if err != nil {
		return nil, fmt.Errorf("server: scenario %q: %w", name, err)
	}
	topo := scn.Topo
	byName := make(map[string]topology.RouterID, topo.NumRouters())
	for i := 0; i < topo.NumRouters(); i++ {
		id := topology.RouterID(i)
		byName[topo.Router(id).Name] = id
	}
	return &Snapshot{Env: env, Scenario: scn, routerByName: byName}, nil
}

// WarmAll converges every registered scenario in name order, so a server
// that warms at startup answers its first request from a hot snapshot.
// It stops early (returning ctx.Err()) if ctx ends, and returns the first
// convergence error otherwise.
func (s *Store) WarmAll(ctx context.Context) error {
	for _, name := range s.reg.Names() {
		if _, err := s.Get(ctx, name); err != nil {
			return err
		}
	}
	return nil
}
