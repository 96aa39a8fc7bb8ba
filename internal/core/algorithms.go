package core

import (
	"context"
	"log/slog"

	"netdiag/internal/pool"
	"netdiag/internal/telemetry"
)

// Options selects the diagnosis features. The zero value is the plain
// multi-AS Boolean tomography algorithm (Tomo, paper §2.4); the paper's
// named variants are the netdiag.Algorithm presets.
type Options struct {
	// LogicalLinks enables the per-neighbor logical-link expansion of
	// §3.1, which lets the algorithm localize BGP export
	// misconfigurations ("partial" link failures).
	LogicalLinks bool
	// UseReroutes enables the reroute sets of §3.2: post-failure paths
	// define the working constraints, and rerouted-but-working paths
	// contribute score to the links they abandoned.
	UseReroutes bool
	// FailureWeight and RerouteWeight are the score weights a and b of
	// §3.2. Zero means 1 (the paper's setting).
	FailureWeight, RerouteWeight float64
	// Routing supplies AS-X's control-plane observations (§3.3).
	Routing *RoutingInfo
	// LG enables Looking-Glass UH mapping and link clustering (§3.4).
	LG LookingGlass
	// KeepUnidentified keeps links with unidentified endpoints in the
	// candidate set. ND-LG sets this; ND-bgpigp "simply ignores any
	// unidentified link" (§5.4).
	KeepUnidentified bool
	// UsePartialTraces is an extension beyond the paper: hops that still
	// responded on a failed post-failure traceroute exonerate the links
	// they traversed. Off by default; the ablation bench measures it.
	UsePartialTraces bool
	// PerPrefixLogical switches the logical-link expansion to per-prefix
	// granularity — the finest (and largest) graph §3.1 discusses before
	// settling on per-neighbor. Only meaningful with LogicalLinks; kept
	// for the scalability study.
	PerPrefixLogical bool
	// Parallelism bounds the worker count for the greedy cover's initial
	// candidate scores; later rounds update them sequentially. <= 1 runs
	// sequentially; the hypothesis set is identical at any setting because
	// scores land in per-candidate slots scanned in deterministic order.
	Parallelism int
	// Telemetry receives the run's metrics: the "diagnose.runs" counter,
	// per-phase latency histograms ("diagnose.phase.<name>_ns") and the
	// pool metrics of the candidate-scoring fan-out. Setting it (or Logger)
	// also populates Result.Telemetry with the run's phase spans. Nil (the
	// default) disables all of it; telemetry never changes the hypothesis.
	Telemetry *telemetry.Registry
	// Logger, when non-nil, receives a debug-level record per phase and a
	// summary per run, and enables Result.Telemetry like Telemetry does.
	Logger *slog.Logger
}

// engine carries what every run shares: the context, worker count,
// options and telemetry. The default engine keeps its interned state in
// bitEngine beside it, and the map reference engine of the package's
// tests embeds it.
type engine struct {
	ctx     context.Context
	workers int
	opts    Options

	// trace is non-nil only when the run is observed (Options.Telemetry or
	// Options.Logger); every phase helper is a no-op otherwise.
	trace *telemetry.Trace
	poolM *pool.Metrics
}

// Run executes the configured diagnosis on the measurements.
func Run(m *Measurements, opts Options) (*Result, error) {
	return RunCtx(context.Background(), m, opts)
}

// RunCtx executes the configured diagnosis on the default (bitset) engine,
// honoring ctx: cancellation is checked on entry, between pipeline phases
// and on every greedy iteration, so a long run aborts promptly with
// ctx.Err(). The result is identical to Run for an uncancelled context.
func RunCtx(ctx context.Context, m *Measurements, opts Options) (*Result, error) {
	return runWith(ctx, m, opts, func(e *engine, m *Measurements) (*Result, error) {
		return newBitEngine(e).run(m)
	})
}

// runWith applies the option defaults, sets up the run's telemetry and
// hands the measurements to one engine implementation.
func runWith(ctx context.Context, m *Measurements, opts Options,
	run func(*engine, *Measurements) (*Result, error)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.FailureWeight == 0 {
		opts.FailureWeight = 1
	}
	if opts.RerouteWeight == 0 {
		opts.RerouteWeight = 1
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1 // zero Options stays sequential for compatibility
	}
	e := &engine{ctx: ctx, workers: workers, opts: opts}
	if opts.Telemetry != nil || opts.Logger != nil {
		e.trace = telemetry.NewTrace()
		if opts.Telemetry != nil {
			opts.Telemetry.Counter("diagnose.runs").Inc()
			e.poolM = pool.NewMetrics(opts.Telemetry)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res, err := run(e, m)
	if err != nil {
		return nil, err
	}
	res.Telemetry = e.trace.Spans()
	if opts.Logger != nil {
		opts.Logger.Debug("diagnose done",
			"hypothesis", len(res.Hypothesis),
			"iterations", res.Iterations,
			"unexplained", res.UnexplainedFailures)
	}
	return res, nil
}

var noopEnd = func() {}

// phase opens a named span of the run; the returned func closes it, feeds
// the "diagnose.phase.<name>_ns" histogram and logs the phase at debug
// level. On an unobserved run it does nothing and never reads the clock.
func (e *engine) phase(name string) func() { return e.phaseIter(name, 0) }

// phaseIter is phase for one iteration of a repeated phase (iter >= 1).
func (e *engine) phaseIter(name string, iter int) func() {
	if e.trace == nil {
		return noopEnd
	}
	endSpan := e.trace.StartIteration(name, iter)
	start := telemetry.Now()
	return func() {
		endSpan()
		d := telemetry.Since(start)
		if e.opts.Telemetry != nil {
			e.opts.Telemetry.Histogram("diagnose.phase."+name+"_ns", telemetry.DurationBuckets).
				Observe(int64(d))
		}
		if e.opts.Logger != nil {
			if iter > 0 {
				e.opts.Logger.Debug("diagnose phase", "phase", name, "iteration", iter, "duration", d)
			} else {
				e.opts.Logger.Debug("diagnose phase", "phase", name, "duration", d)
			}
		}
	}
}
