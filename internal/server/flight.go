package server

import (
	"sync"

	"netdiag/internal/telemetry"
)

// flight is one in-flight diagnosis computation. Its result is final once
// done closes; every coalesced request for the same key reads the same
// bytes, which is what makes coalescing invisible to clients.
type flight struct {
	done chan struct{}
	body []byte
	err  error
	// leaderTrace is the trace ID of the request that submitted the
	// computation; coalesced followers log it so one slow computation's
	// access lines stitch together across its waiters.
	leaderTrace string
	// queueWaitNs is the admission→job-start wait measured by the group
	// itself, so every handler gets it for free instead of each one
	// wiring its own clock into the job closure. A plain field, not an
	// atomic: the job goroutine writes it before close(done), and readers
	// only look after <-done, so the channel close is the happens-before
	// edge. A handler that gives up early (504) never reads it.
	queueWaitNs int64
}

// flightGroup coalesces identical in-flight requests (singleflight): the
// first request for a canonical key becomes the leader and submits one
// computation; requests arriving before it completes attach to it instead
// of queueing their own. Entries are removed as soon as the computation
// finishes — this is request coalescing, not a response cache: a request
// arriving after completion recomputes (against the warm snapshot).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight

	hits   *telemetry.Counter
	misses *telemetry.Counter
	// wait observes every flight's queueWaitNs: the admission wait,
	// apart from the pool tasks' pickup waits in "pool.queue_wait_ns".
	wait *telemetry.Histogram
}

func newFlightGroup(tele *telemetry.Registry) *flightGroup {
	return &flightGroup{
		m:      map[string]*flight{},
		hits:   tele.Counter("server.coalesce_hits"),
		misses: tele.Counter("server.coalesce_misses"),
		wait:   tele.Histogram("server.admission_wait_ns", telemetry.DurationBuckets),
	}
}

// do returns the flight for key, creating and submitting it when none is
// in flight. The submit func must be non-blocking (pool.Queue.TrySubmit);
// it is invoked under the group lock so that a shed admission leaves no
// window for followers to attach to a flight that will never run.
// traceID is the calling request's trace ID, retained on the flight when
// this caller becomes the leader. leader reports which role the caller
// got; ok is false only when this caller would have been the leader and
// admission was refused — the caller sheds the request.
func (g *flightGroup) do(key, traceID string, submit func(func()) bool, compute func() ([]byte, error)) (f *flight, leader, ok bool) {
	g.mu.Lock()
	if f := g.m[key]; f != nil {
		g.mu.Unlock()
		g.hits.Inc()
		return f, false, true
	}
	f = &flight{done: make(chan struct{}), leaderTrace: traceID}
	submitted := telemetry.Now()
	run := func() {
		f.queueWaitNs = telemetry.Since(submitted).Nanoseconds()
		g.wait.Observe(f.queueWaitNs)
		f.body, f.err = compute()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}
	//ndlint:ignore locksafe submit is pool.Queue.TrySubmit, non-blocking by contract; invoking it under g.mu is deliberate so a shed admission leaves no window for followers to attach to a flight that will never run
	if !submit(run) {
		g.mu.Unlock()
		return nil, false, false
	}
	g.m[key] = f
	g.misses.Inc()
	g.mu.Unlock()
	return f, true, true
}
