package netdiag_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"netdiag"
)

// fig2Measurements simulates the Fig 2 scenario with the b1-b2 failure and
// returns the diagnosis input plus the routing observations.
func fig2Measurements(t *testing.T) (*netdiag.Measurements, *netdiag.RoutingInfo) {
	t.Helper()
	fig := netdiag.BuildFig2()
	origins := []netdiag.ASN{fig.ASA, fig.ASB, fig.ASC}
	net, err := netdiag.NewNetwork(fig.Topo, origins, netdiag.WithNetworkParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	sensors := []netdiag.RouterID{fig.S1, fig.S2, fig.S3}
	before := net.Mesh(sensors)
	beforeBGP := net.BGP()

	link, ok := fig.Topo.LinkBetween(fig.R["b1"], fig.R["b2"])
	if !ok {
		t.Fatal("b1-b2 missing")
	}
	net.FailLink(link.ID)
	if err := net.Reconverge(); err != nil {
		t.Fatal(err)
	}
	after := net.Mesh(sensors)
	routing := &netdiag.RoutingInfo{
		ASX:          fig.ASX,
		IGPDownLinks: netdiag.AdaptIGPDowns(net, fig.ASX),
		Withdrawals: netdiag.AdaptWithdrawals(fig.Topo,
			netdiag.ObserveWithdrawals(fig.Topo, beforeBGP, net.BGP(), fig.ASX), origins),
	}
	return netdiag.ToMeasurements(before, after), routing
}

// TestDiagnoserMatchesWrappers asserts each Algorithm preset is a thin
// wrapper over the engine Options it names: New(WithAlgorithm(a)) and
// New(WithOptions(o)) produce identical hypothesis sets.
func TestDiagnoserMatchesWrappers(t *testing.T) {
	meas, routing := fig2Measurements(t)
	ctx := context.Background()

	wantEdge, err := netdiag.New(netdiag.WithOptions(netdiag.Options{
		LogicalLinks: true, UseReroutes: true,
	})).Diagnose(ctx, meas)
	if err != nil {
		t.Fatal(err)
	}
	gotEdge, err := netdiag.New(netdiag.WithAlgorithm(netdiag.NDEdgeAlgo)).Diagnose(ctx, meas)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantEdge, gotEdge) {
		t.Fatalf("ND-edge session result differs:\n%v\nvs\n%v", gotEdge, wantEdge)
	}

	wantBI, err := netdiag.New(netdiag.WithOptions(netdiag.Options{
		LogicalLinks: true, UseReroutes: true, Routing: routing,
	})).Diagnose(ctx, meas)
	if err != nil {
		t.Fatal(err)
	}
	gotBI, err := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDBgpIgpAlgo),
		netdiag.WithRoutingInfo(routing),
	).Diagnose(ctx, meas)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantBI, gotBI) {
		t.Fatalf("ND-bgpigp session result differs:\n%v\nvs\n%v", gotBI, wantBI)
	}

	if a := netdiag.New(netdiag.WithAlgorithm(netdiag.NDLGAlgo)).Algorithm(); a.String() != "ND-LG" {
		t.Fatalf("Algorithm() = %v", a)
	}
}

// TestDiagnoseParallelismIdentical asserts the hypothesis set is identical
// between sequential diagnosis and an 8-worker run.
func TestDiagnoseParallelismIdentical(t *testing.T) {
	meas, routing := fig2Measurements(t)
	seq, err := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDBgpIgpAlgo),
		netdiag.WithRoutingInfo(routing),
		netdiag.WithParallelism(1),
	).Diagnose(context.Background(), meas)
	if err != nil {
		t.Fatal(err)
	}
	par, err := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDBgpIgpAlgo),
		netdiag.WithRoutingInfo(routing),
		netdiag.WithParallelism(8),
	).Diagnose(context.Background(), meas)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallelism changed the result:\nseq %v\npar %v", seq, par)
	}
}

// TestDiagnoseValidation asserts malformed measurements surface as a typed
// *ValidationError through errors.As, for the default session, an
// Algorithm preset and a custom Options session alike.
func TestDiagnoseValidation(t *testing.T) {
	bad := &netdiag.Measurements{
		NumSensors: 2,
		Before: []*netdiag.TracePath{
			{SrcSensor: 0, DstSensor: 5, OK: true, Hops: []netdiag.Hop{{Node: "a"}, {Node: "b"}}},
		},
	}
	_, err := netdiag.New().Diagnose(context.Background(), bad)
	var verr *netdiag.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("Diagnose error = %v, want *ValidationError", err)
	}
	if verr.Mesh != "before" || verr.Src != 0 || verr.Dst != 5 {
		t.Fatalf("ValidationError fields = %+v", verr)
	}
	ctx := context.Background()
	if _, err := netdiag.New(netdiag.WithAlgorithm(netdiag.TomoAlgo)).Diagnose(ctx, bad); !errors.As(err, &verr) {
		t.Fatalf("Tomo error = %v, want *ValidationError", err)
	}
	if _, err := netdiag.New(netdiag.WithOptions(netdiag.Options{})).Diagnose(ctx, bad); !errors.As(err, &verr) {
		t.Fatalf("WithOptions error = %v, want *ValidationError", err)
	}
}

// TestDiagnoseCancellation asserts an already-cancelled context aborts the
// diagnosis with ctx.Err().
func TestDiagnoseCancellation(t *testing.T) {
	meas, _ := fig2Measurements(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := netdiag.New(netdiag.WithAlgorithm(netdiag.NDEdgeAlgo)).Diagnose(ctx, meas)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Diagnose with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestDiagnoserConcurrentUse hammers a single Diagnoser from many
// goroutines. The session is immutable after New, so this must be
// race-free (run with -race) and every call must return the same result.
func TestDiagnoserConcurrentUse(t *testing.T) {
	meas, routing := fig2Measurements(t)
	d := netdiag.New(
		netdiag.WithAlgorithm(netdiag.NDBgpIgpAlgo),
		netdiag.WithRoutingInfo(routing),
		netdiag.WithParallelism(4),
	)
	want, err := d.Diagnose(context.Background(), meas)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	results := make([]*netdiag.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = d.Diagnose(context.Background(), meas)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(results[g], want) {
			t.Fatalf("goroutine %d result differs:\n%v\nvs\n%v", g, results[g], want)
		}
	}
}

// TestValidationErrorMessage pins the error rendering used by the CLI.
func TestValidationErrorMessage(t *testing.T) {
	verr := &netdiag.ValidationError{Mesh: "after", Src: 1, Dst: 2, Reason: "no hops"}
	want := "core: after path 1->2 invalid: no hops"
	if got := fmt.Sprint(verr); got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}
