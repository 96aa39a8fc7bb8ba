package netdiag

import (
	"context"
	"fmt"
	"log/slog"
	"strings"

	"netdiag/internal/core"
	"netdiag/internal/netsim"
	"netdiag/internal/pool"
	"netdiag/internal/telemetry"
)

// Algorithm names one of the paper's diagnosis algorithm variants. The zero
// value is the Tomo baseline; the ND* constants enable the corresponding
// sections' features.
type Algorithm int

const (
	// TomoAlgo is the multi-AS Boolean tomography baseline (§2).
	TomoAlgo Algorithm = iota
	// NDEdgeAlgo adds logical links and reroute information (§3.1–3.2).
	NDEdgeAlgo
	// NDBgpIgpAlgo adds AS-X's IGP link-downs and BGP withdrawals (§3.3);
	// supply them with WithRoutingInfo.
	NDBgpIgpAlgo
	// NDLGAlgo adds Looking-Glass handling of traceroute-blocking ASes
	// (§3.4); supply the oracle with WithLookingGlass.
	NDLGAlgo
)

// ParseAlgorithm resolves a user-facing algorithm name ("tomo", "nd-edge",
// "nd-bgpigp", "nd-lg", case-insensitive, dashes optional) to the Algorithm
// constant. The CLI flags and the ndserve request decoder both go through
// here, so the two front ends accept exactly the same names.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "tomo":
		return TomoAlgo, nil
	case "nd-edge", "ndedge":
		return NDEdgeAlgo, nil
	case "nd-bgpigp", "ndbgpigp":
		return NDBgpIgpAlgo, nil
	case "nd-lg", "ndlg":
		return NDLGAlgo, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want tomo, nd-edge, nd-bgpigp or nd-lg)", s)
}

// Slug returns the canonical lower-case wire name of the algorithm — the
// form ParseAlgorithm accepts and the JSON wire results carry.
func (a Algorithm) Slug() string {
	switch a {
	case TomoAlgo:
		return "tomo"
	case NDEdgeAlgo:
		return "nd-edge"
	case NDBgpIgpAlgo:
		return "nd-bgpigp"
	case NDLGAlgo:
		return "nd-lg"
	}
	return "algorithm-?"
}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case TomoAlgo:
		return "Tomo"
	case NDEdgeAlgo:
		return "ND-edge"
	case NDBgpIgpAlgo:
		return "ND-bgpigp"
	case NDLGAlgo:
		return "ND-LG"
	}
	return "Algorithm(?)"
}

// engineOptions maps the algorithm to the core feature flags.
func (a Algorithm) engineOptions() Options {
	switch a {
	case NDEdgeAlgo, NDBgpIgpAlgo:
		return Options{LogicalLinks: true, UseReroutes: true}
	case NDLGAlgo:
		return Options{LogicalLinks: true, UseReroutes: true, KeepUnidentified: true}
	}
	return Options{}
}

// ValidationError is the typed error returned when a Measurements input is
// malformed; extract it with errors.As to learn the offending mesh and
// sensor pair.
type ValidationError = core.ValidationError

// Diagnoser is a reusable diagnosis session: an algorithm choice plus the
// session-wide inputs (routing observations, Looking Glass oracle) and the
// concurrency budget. A Diagnoser is immutable after New and safe for
// concurrent Diagnose calls.
type Diagnoser struct {
	algo   Algorithm
	custom *Options
	ri     *RoutingInfo
	lg     LookingGlass
	par    int
	tele   *telemetry.Registry
	logger *slog.Logger
}

// DiagnoserOption configures a Diagnoser at construction time.
type DiagnoserOption func(*Diagnoser)

// WithAlgorithm selects the diagnosis algorithm (default TomoAlgo).
func WithAlgorithm(a Algorithm) DiagnoserOption {
	return func(d *Diagnoser) { d.algo = a }
}

// WithOptions supplies a custom engine configuration instead of an
// Algorithm preset; WithRoutingInfo, WithLookingGlass and WithParallelism
// still apply on top of it.
func WithOptions(o Options) DiagnoserOption {
	return func(d *Diagnoser) { d.custom = &o }
}

// WithRoutingInfo supplies AS-X's control-plane observations (§3.3).
func WithRoutingInfo(ri *RoutingInfo) DiagnoserOption {
	return func(d *Diagnoser) { d.ri = ri }
}

// WithLookingGlass supplies the Looking Glass oracle for blocked ASes
// (§3.4).
func WithLookingGlass(lg LookingGlass) DiagnoserOption {
	return func(d *Diagnoser) { d.lg = lg }
}

// WithParallelism bounds the workers that score the greedy cover's
// candidates once at the start; later rounds update them sequentially.
// n <= 0 selects runtime.GOMAXPROCS(0), the default; n = 1 is the exact
// sequential execution. The hypothesis set is identical at any setting.
func WithParallelism(n int) DiagnoserOption {
	return func(d *Diagnoser) { d.par = pool.Size(n) }
}

// WithTelemetry attaches a telemetry registry to the session: every
// Diagnose call bumps "diagnose.runs", feeds per-phase latency histograms
// ("diagnose.phase.<name>_ns") and the scoring pool metrics, and returns
// its phase spans in Result.Telemetry. The default (nil) disables all of
// it at zero cost; telemetry never changes the hypothesis. Publish the
// registry with ServeDebug to watch a live session.
func WithTelemetry(r *Telemetry) DiagnoserOption {
	return func(d *Diagnoser) { d.tele = r }
}

// WithLogger attaches a structured logger: each Diagnose call emits one
// debug record per phase and a summary record, and populates
// Result.Telemetry like WithTelemetry does. Nil (the default) logs nothing.
func WithLogger(lg *slog.Logger) DiagnoserOption {
	return func(d *Diagnoser) { d.logger = lg }
}

// New builds a diagnosis session from functional options:
//
//	d := netdiag.New(
//		netdiag.WithAlgorithm(netdiag.NDBgpIgpAlgo),
//		netdiag.WithRoutingInfo(ri),
//		netdiag.WithParallelism(4),
//	)
//	res, err := d.Diagnose(ctx, meas)
func New(opts ...DiagnoserOption) *Diagnoser {
	d := &Diagnoser{algo: TomoAlgo, par: pool.Size(0)}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Algorithm reports the session's algorithm choice.
func (d *Diagnoser) Algorithm() Algorithm { return d.algo }

// Parallelism reports the session's resolved worker count.
func (d *Diagnoser) Parallelism() int { return d.par }

// Diagnose validates m and runs the configured algorithm on it. A
// malformed input yields a *ValidationError; ctx cancellation is honored
// between pipeline phases and on every greedy iteration and surfaces as
// ctx.Err(). Safe to call concurrently on the same Diagnoser.
func (d *Diagnoser) Diagnose(ctx context.Context, m *Measurements) (*Result, error) {
	o := d.algo.engineOptions()
	if d.custom != nil {
		o = *d.custom
	}
	if d.ri != nil {
		o.Routing = d.ri
	}
	if d.lg != nil {
		o.LG = d.lg
	}
	if d.tele != nil {
		o.Telemetry = d.tele
	}
	if d.logger != nil {
		o.Logger = d.logger
	}
	o.Parallelism = d.par
	return core.RunCtx(ctx, m, o)
}

// NetworkOption configures a simulated Network at construction time.
type NetworkOption = netsim.Option

// WithNetworkParallelism bounds the worker count the Network uses for BGP
// convergence, SPF computation and full-mesh tracerouting. n <= 0 selects
// runtime.GOMAXPROCS(0); the converged state is identical at any setting.
func WithNetworkParallelism(n int) NetworkOption { return netsim.WithParallelism(n) }
