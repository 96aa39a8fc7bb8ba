// Package netdiag is a from-scratch reproduction of NetDiagnoser
// (Dhamdhere, Teixeira, Dovrolis, Diot — CoNEXT 2007): troubleshooting
// network unreachabilities using end-to-end probes and routing data.
//
// The package is a facade over the implementation packages:
//
//   - the diagnosis algorithms (Tomo, ND-edge, ND-bgpigp, ND-LG, the SCFS
//     baseline and the diagnosability metric) from internal/core;
//   - the evaluation metrics (sensitivity/specificity and AS-level
//     variants) from internal/metrics;
//   - the simulation substrate (multi-AS topologies, IGP and BGP routing,
//     traceroute, failure injection) from internal/topology, internal/igp,
//     internal/bgp and internal/netsim;
//   - the paper's experiment harness from internal/experiment.
//
// A minimal diagnosis needs only measurements:
//
//	meas := &netdiag.Measurements{NumSensors: 2, Before: ..., After: ...}
//	d := netdiag.New(netdiag.WithAlgorithm(netdiag.NDEdgeAlgo))
//	res, err := d.Diagnose(ctx, meas)
//	for _, h := range res.Hypothesis { fmt.Println(h.Link) }
//
// See examples/ for end-to-end scenarios driven through the simulator, and
// cmd/ndsim for the reproduction of every figure in the paper's evaluation.
package netdiag

import (
	"netdiag/internal/bgp"
	"netdiag/internal/core"
	"netdiag/internal/experiment"
	"netdiag/internal/lookingglass"
	"netdiag/internal/metrics"
	"netdiag/internal/monitor"
	"netdiag/internal/netsim"
	"netdiag/internal/probe"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// Diagnosis types (see internal/core).
type (
	// Node identifies a vertex of the diagnosis graph.
	Node = core.Node
	// Link is a directed edge of the diagnosis graph.
	Link = core.Link
	// Hop is one traceroute hop as the troubleshooter sees it.
	Hop = core.Hop
	// TracePath is one sensor-to-sensor traceroute.
	TracePath = core.TracePath
	// Measurements is a full diagnosis input (T- and T+ meshes).
	Measurements = core.Measurements
	// Options is a custom diagnosis feature set for WithOptions.
	Options = core.Options
	// Result is a diagnosis output: the hypothesis set H.
	Result = core.Result
	// HypLink is one hypothesis entry with physical/AS attribution.
	HypLink = core.HypLink
	// RoutingInfo carries AS-X's control-plane observations.
	RoutingInfo = core.RoutingInfo
	// Withdrawal is one observed BGP withdrawal.
	Withdrawal = core.Withdrawal
	// LookingGlass answers AS-path queries for ND-LG.
	LookingGlass = core.LookingGlass
	// WireResult is the stable JSON wire form of a Result, shared by the
	// netdiagnoser CLI (-json) and the ndserve HTTP API; produce it with
	// Result.Wire and render it with WireResult.Encode.
	WireResult = core.WireResult
	// WireHyp is one hypothesis entry of a WireResult.
	WireHyp = core.WireHyp
)

// Topology and simulation types (see internal/topology, internal/netsim).
type (
	// ASN is an autonomous-system number.
	ASN = topology.ASN
	// RouterID identifies a router.
	RouterID = topology.RouterID
	// LinkID identifies a physical link.
	LinkID = topology.LinkID
	// Topology is an immutable multi-AS router-level topology.
	Topology = topology.Topology
	// TopologyBuilder constructs topologies.
	TopologyBuilder = topology.Builder
	// Network is a converged simulated internetwork.
	Network = netsim.Network
	// ExportFilter is a BGP export filter (simulated misconfiguration).
	ExportFilter = bgp.ExportFilter
	// Research is a generated research-Internet topology with AS roles.
	Research = topology.Research
	// Prefix names an announced destination prefix.
	Prefix = bgp.Prefix
)

// SCFS runs Duffield's single-source tree baseline (paper §2.1).
func SCFS(paths []*TracePath) ([]Link, error) { return core.SCFS(paths) }

// Diagnosability computes the D(G) metric of paper §4.
func Diagnosability(paths []*TracePath) float64 { return core.Diagnosability(paths) }

// DisplayNode renders a node for humans, collapsing logical-node keys to
// the paper's "router(AS)" form.
func DisplayNode(n Node) string { return core.Display(n) }

// Sensitivity is |F∩H|/|F| (paper §4).
func Sensitivity(failed, hypothesis []Link) float64 { return metrics.Sensitivity(failed, hypothesis) }

// Specificity is the fraction of non-failed probed links correctly left
// out of the hypothesis (paper §4).
func Specificity(universe, failed, hypothesis []Link) float64 {
	return metrics.Specificity(universe, failed, hypothesis)
}

// ASSensitivity is the AS-granularity sensitivity (paper §4).
func ASSensitivity(failedASes, hypASes []ASN) float64 {
	return metrics.ASSensitivity(failedASes, hypASes)
}

// ASSpecificity is the AS-granularity specificity over probe-covered ASes.
func ASSpecificity(covered, failedASes, hypASes []ASN) float64 {
	return metrics.ASSpecificity(covered, failedASes, hypASes)
}

// NewTopologyBuilder returns an empty topology builder.
func NewTopologyBuilder() *TopologyBuilder { return topology.NewBuilder() }

// GenerateResearch builds the paper's 165-AS evaluation topology.
func GenerateResearch(seed int64) (*Research, error) {
	return topology.GenerateResearch(topology.DefaultResearchConfig(seed))
}

// NewNetwork converges a simulated network announcing one prefix per
// origin AS. Options (e.g. WithNetworkParallelism) tune the simulation.
func NewNetwork(t *Topology, origins []ASN, opts ...NetworkOption) (*Network, error) {
	return netsim.New(t, origins, opts...)
}

// Telemetry types (see internal/telemetry). A Telemetry registry collects
// counters, gauges and latency histograms from every pipeline layer it is
// attached to; everything is off (and free) until a registry is passed in.
type (
	// Telemetry is a registry of named pipeline metrics.
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of a registry's metrics.
	TelemetrySnapshot = telemetry.Snapshot
	// Span is one timed phase of a Diagnose run (Result.Telemetry).
	Span = telemetry.Span
	// DebugServer serves /debug/vars and /debug/pprof for a registry.
	DebugServer = telemetry.DebugServer
)

// NewTelemetry returns an empty telemetry registry. Attach it with
// WithTelemetry (diagnosis), WithNetworkTelemetry (simulation) or
// DetectorConfig.Telemetry (monitoring), and serve it with ServeDebug.
func NewTelemetry() *Telemetry { return telemetry.New() }

// ServeDebug starts an HTTP debug server on addr exposing the registry at
// /debug/vars (expvar, under the "netdiag" key) and the runtime profiles at
// /debug/pprof. Close the returned server to stop it.
func ServeDebug(addr string, r *Telemetry) (*DebugServer, error) {
	return telemetry.ServeDebug(addr, r)
}

// WithNetworkTelemetry attaches a telemetry registry to a simulated
// Network: convergence-phase latencies, per-AS SPF rebuilds, BGP fixpoint
// decisions, probe-mesh and worker-pool metrics.
func WithNetworkTelemetry(r *Telemetry) NetworkOption { return netsim.WithTelemetry(r) }

// NewLookingGlassRegistry builds a Looking Glass oracle over converged BGP
// states (see internal/lookingglass).
var NewLookingGlassRegistry = lookingglass.New

// Failure detection (paper §6; see internal/monitor).
type (
	// Detector raises alarms for unreachabilities that persist across
	// measurement rounds, filtering transient events.
	Detector = monitor.Detector
	// DetectorConfig parameterizes a Detector.
	DetectorConfig = monitor.Config
	// Alarm is a confirmed unreachability event with its T-/T+ meshes.
	Alarm = monitor.Alarm
)

// NewDetector returns a failure detector.
func NewDetector(cfg DetectorConfig) *Detector { return monitor.New(cfg) }

// Measurement-plane types (see internal/probe).
type (
	// Mesh is a full mesh of traceroutes among sensors.
	Mesh = probe.Mesh
	// ProbePath is one simulated traceroute result.
	ProbePath = probe.Path
)

// Simulator-to-diagnosis adapters (see internal/experiment).
var (
	// ToMeasurements converts pre/post-failure meshes into diagnosis input.
	ToMeasurements = experiment.ToMeasurements
	// ProbedLinks extracts the probed directed physical link universe E.
	ProbedLinks = experiment.ProbedLinks
	// AdaptWithdrawals converts simulator withdrawals for the diagnoser.
	AdaptWithdrawals = experiment.AdaptWithdrawals
	// AdaptIGPDowns renders AS-X's failed intra-AS links for the diagnoser.
	AdaptIGPDowns = experiment.AdaptIGPDowns
	// ObserveWithdrawals diffs two converged BGP states at AS-X's border.
	ObserveWithdrawals = netsim.Withdrawals
	// BuildFig2 constructs the paper's Figure 2 example topology.
	BuildFig2 = topology.BuildFig2
	// BuildFig1 constructs the paper's Figure 1 tree topology.
	BuildFig1 = topology.BuildFig1
	// PrefixFor names the prefix originated by an AS.
	PrefixFor = bgp.PrefixFor
)

// Experiment harness re-exports: every evaluation figure of the paper.
var (
	// DefaultExperimentConfig is the paper-scale experiment configuration.
	DefaultExperimentConfig = experiment.DefaultConfig
	// Figure5 through Figure12 regenerate the paper's evaluation figures.
	Figure5  = experiment.Figure5
	Figure6  = experiment.Figure6
	Figure7  = experiment.Figure7
	Figure8  = experiment.Figure8
	Figure9  = experiment.Figure9
	Figure10 = experiment.Figure10
	Figure11 = experiment.Figure11
	Figure12 = experiment.Figure12
)
