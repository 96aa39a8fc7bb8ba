package main

import (
	"bytes"
	"context"
	"fmt"

	"netdiag"
	"netdiag/internal/core"
	"netdiag/internal/experiment"
	"netdiag/internal/lookingglass"
	"netdiag/internal/probe"
	"netdiag/internal/server"
)

// The direct pipeline: the public calls ndserve's POST /v1/diagnose makes,
// composed in the same order without HTTP, admission or coalescing. It is
// both the reference the served bytes are checked against and the traced
// pass's view of the layers. Each call runs inside a span named after its
// layer.

// shape counts what one diagnosis was given and produced, so a change in
// input shape can be told apart from a change in speed.
type shape struct {
	pairsTraced, pairsChanged int
	failureSets, rerouteSets  int
	iterations, hypLinks      int
}

// directDiagnose runs one request through the layers and returns the wire
// bytes the server would send for it.
func directDiagnose(ctx context.Context, snap *server.Snapshot, req diagReq, tr *tracer, reqID int) ([]byte, shape, error) {
	var sh shape
	algo, err := netdiag.ParseAlgorithm(req.algo)
	if err != nil {
		return nil, sh, err
	}
	topo := snap.Scenario.Topo
	sp := tr.start(reqID, 0, "netsim.fork")
	fork := snap.Net.Fork()
	for _, l := range req.links {
		a, okA := snap.Router(l[0])
		b, okB := snap.Router(l[1])
		pl, ok := topo.LinkBetween(a, b)
		if !okA || !okB || !ok {
			tr.end(sp)
			return nil, sh, fmt.Errorf("no link %s~%s", l[0], l[1])
		}
		fork.FailLink(pl.ID)
	}
	tr.end(sp)

	sp = tr.start(reqID, 0, "netsim.reconverge")
	err = fork.ReconvergeCtx(ctx)
	tr.end(sp)
	if err != nil {
		return nil, sh, err
	}
	sp = tr.start(reqID, 0, "probe.mesh")
	after, err := fork.MeshCtx(ctx, snap.Scenario.Sensors)
	tr.end(sp)
	if err != nil {
		return nil, sh, err
	}
	sh.pairsTraced, sh.pairsChanged = meshChanges(snap.BeforeMesh, after)

	sp = tr.start(reqID, 0, "experiment.adapt")
	meas := experiment.ToMeasurementsMapped(snap.BeforeMesh, after, snap.IP2AS.Lookup)
	opts := []netdiag.DiagnoserOption{netdiag.WithAlgorithm(algo)}
	asx := snap.Scenario.ASX
	if algo == netdiag.NDBgpIgpAlgo || algo == netdiag.NDLGAlgo {
		opts = append(opts, netdiag.WithRoutingInfo(&netdiag.RoutingInfo{
			ASX:          asx,
			IGPDownLinks: experiment.AdaptIGPDowns(fork, asx),
			Withdrawals: experiment.AdaptWithdrawals(topo,
				fork.ObserveWithdrawals(snap.BeforeBGP, asx), snap.SensorASes),
		}))
	}
	if algo == netdiag.NDLGAlgo {
		opts = append(opts, netdiag.WithLookingGlass(
			lookingglass.New(fork.BGP(), snap.BeforeBGP, nil, asx, snap.Prefixes)))
	}
	tr.end(sp)

	body, err := diagnoseAndEncode(ctx, meas, algo, opts, tr, reqID, &sh)
	return body, sh, err
}

// diagnoseAndEncode is the core leg every workload shares: one call into
// the netdiag facade, then the wire encoding.
func diagnoseAndEncode(ctx context.Context, meas *core.Measurements, algo netdiag.Algorithm, opts []netdiag.DiagnoserOption, tr *tracer, reqID int, sh *shape) ([]byte, error) {
	sh.failureSets, sh.rerouteSets = inputSets(meas)
	sp := tr.start(reqID, 0, "core.diagnose")
	res, err := netdiag.New(opts...).Diagnose(ctx, meas)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sh.iterations, sh.hypLinks = res.Iterations, len(res.Hypothesis)
	return encode(res, algo.Slug(), tr, reqID)
}

// encode renders a result in the wire form, inside a core.encode span.
func encode(res *core.Result, slug string, tr *tracer, reqID int) ([]byte, error) {
	sp := tr.start(reqID, 0, "core.encode")
	defer tr.end(sp)
	var buf bytes.Buffer
	if err := res.Wire(slug).Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// meshChanges counts the traced pairs of a mesh and those whose path
// differs from the healthy baseline: the useful share of a full re-probe.
func meshChanges(before, after *probe.Mesh) (traced, changed int) {
	for i := range after.Paths {
		for j, a := range after.Paths[i] {
			if i == j || a == nil {
				continue
			}
			traced++
			if !samePath(before.Paths[i][j], a) {
				changed++
			}
		}
	}
	return traced, changed
}

func samePath(a, b *probe.Path) bool {
	if a == nil || b == nil || a.OK != b.OK || len(a.Hops) != len(b.Hops) {
		return a == b
	}
	for k := range a.Hops {
		if a.Hops[k].Router != b.Hops[k].Router {
			return false
		}
	}
	return true
}

// inputSets counts the failure sets (pairs working before and broken
// after) and reroute sets (pairs working both times over different hops)
// that the measurements present to the core.
func inputSets(m *core.Measurements) (failure, reroute int) {
	type pair struct{ s, d int }
	before := make(map[pair]*core.TracePath, len(m.Before))
	for _, p := range m.Before {
		before[pair{p.SrcSensor, p.DstSensor}] = p
	}
	for _, a := range m.After {
		b := before[pair{a.SrcSensor, a.DstSensor}]
		switch {
		case b == nil || !b.OK:
		case !a.OK:
			failure++
		case !sameHops(a.Hops, b.Hops):
			reroute++
		}
	}
	return failure, reroute
}

func sameHops(a, b []core.Hop) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Node != b[k].Node {
			return false
		}
	}
	return true
}
