//go:build go1.24

package netsim

import (
	"runtime"
	"testing"
	"weak"
)

// TestReconvergeKeepsNoPriorState pins that a network holds only its
// current routing state: a long-lived fork reconverged through a chain of
// deltas lets every earlier bgp.State be collected, so its memory does
// not grow with the number of reconvergences. It needs the weak package
// (Go 1.24), so it sits behind a build constraint that keeps the
// package's other tests compiling on go.mod's Go 1.22.
func TestReconvergeKeepsNoPriorState(t *testing.T) {
	f, n := fig2Net(t)
	l, _ := f.Topo.LinkBetween(f.R["y3"], f.R["y4"])
	fork := n.Fork()
	fork.FailLink(l.ID)
	if err := fork.Reconverge(); err != nil {
		t.Fatal(err)
	}
	first := weak.Make(fork.BGP())
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			fork.RestoreLink(l.ID)
		} else {
			fork.FailLink(l.ID)
		}
		if err := fork.Reconverge(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("the fork's first converged bgp.State is still reachable after six reconvergences")
	}
	runtime.KeepAlive(fork)
}
