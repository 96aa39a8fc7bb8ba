package lookingglass

import (
	"testing"

	"netdiag/internal/bgp"
	"netdiag/internal/igp"
	"netdiag/internal/topology"
)

func converge(t *testing.T, f *topology.Fig2, isUp func(topology.LinkID) bool) *bgp.State {
	t.Helper()
	if isUp == nil {
		isUp = func(topology.LinkID) bool { return true }
	}
	st, err := bgp.Compute(bgp.Config{
		Topo:     f.Topo,
		IGP:      igp.New(f.Topo, isUp, 1),
		IsLinkUp: isUp,
		Origins: map[bgp.Prefix]topology.ASN{
			bgp.PrefixFor(f.ASA): f.ASA,
			bgp.PrefixFor(f.ASB): f.ASB,
			bgp.PrefixFor(f.ASC): f.ASC,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRegistryASPath(t *testing.T) {
	f := topology.BuildFig2()
	st := converge(t, f, nil)
	prefixes := []bgp.Prefix{bgp.PrefixFor(f.ASA), bgp.PrefixFor(f.ASB), bgp.PrefixFor(f.ASC)}
	reg := New(st, nil, nil, f.ASX, prefixes)

	// AS-A's Looking Glass reports A X Y B towards sensor 1 (in B).
	path, ok := reg.ASPath(f.ASA, 1)
	if !ok {
		t.Fatal("no path from A to sensor 1")
	}
	want := []topology.ASN{f.ASA, f.ASX, f.ASY, f.ASB}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestRegistryAvailability(t *testing.T) {
	f := topology.BuildFig2()
	st := converge(t, f, nil)
	prefixes := []bgp.Prefix{bgp.PrefixFor(f.ASA)}

	// nil availability = everyone available.
	reg := New(st, nil, nil, f.ASX, prefixes)
	if !reg.Available(f.ASY) {
		t.Fatal("nil availability should mean all ASes available")
	}

	// Restricted availability: only AS-B; AS-X remains implicitly
	// available (its own BGP tables).
	reg = New(st, nil, map[topology.ASN]bool{f.ASB: true}, f.ASX, prefixes)
	if reg.Available(f.ASY) {
		t.Fatal("AS-Y should be unavailable")
	}
	if !reg.Available(f.ASB) {
		t.Fatal("AS-B should be available")
	}
	if !reg.Available(f.ASX) {
		t.Fatal("the troubleshooter's own AS must always be available")
	}
	if _, ok := reg.ASPath(f.ASY, 0); ok {
		t.Fatal("unavailable LG must refuse queries")
	}
}

func TestRegistryFallback(t *testing.T) {
	f := topology.BuildFig2()
	before := converge(t, f, nil)
	// Fail the only Y-B link: post-failure, nobody outside B has a route
	// to B's prefix.
	l, _ := f.Topo.LinkBetween(f.R["y4"], f.R["b1"])
	after := converge(t, f, func(id topology.LinkID) bool { return id != l.ID })
	prefixes := []bgp.Prefix{bgp.PrefixFor(f.ASA), bgp.PrefixFor(f.ASB)}

	noFallback := New(after, nil, nil, f.ASX, prefixes)
	if _, ok := noFallback.ASPath(f.ASA, 1); ok {
		t.Fatal("post-failure state has no route to B; query should fail without fallback")
	}
	withFallback := New(after, before, nil, f.ASX, prefixes)
	path, ok := withFallback.ASPath(f.ASA, 1)
	if !ok || len(path) == 0 {
		t.Fatal("fallback state should answer the query")
	}
}

func TestRegistryBadSensorIndex(t *testing.T) {
	f := topology.BuildFig2()
	st := converge(t, f, nil)
	reg := New(st, nil, nil, f.ASX, []bgp.Prefix{bgp.PrefixFor(f.ASA)})
	if _, ok := reg.ASPath(f.ASA, 5); ok {
		t.Fatal("out-of-range sensor index must fail")
	}
	if _, ok := reg.ASPath(f.ASA, -1); ok {
		t.Fatal("negative sensor index must fail")
	}
}
