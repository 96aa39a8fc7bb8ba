//go:build go1.24

package netsim

import (
	"runtime"
	"testing"
	"weak"

	"netdiag/internal/bgp"
)

// TestReconvergeKeepsNoPriorState pins that a network holds only its
// current routing state: a long-lived fork reconverged through a chain of
// deltas lets every earlier bgp.State be collected, so its memory does
// not grow with the number of reconvergences. Every step fails one more
// link, so each reconvergence warm-starts from the state before it (a
// restoration would converge cold and hold no prior at all). It needs the
// weak package (Go 1.24), so it sits behind a build constraint that keeps
// the package's other tests compiling on go.mod's Go 1.22.
func TestReconvergeKeepsNoPriorState(t *testing.T) {
	f, n := fig2Net(t)
	pairs := [][2]string{
		{"y3", "y4"}, {"y1", "y2"}, {"y2", "y3"}, {"x1", "x2"},
		{"b1", "b2"}, {"c1", "c2"}, {"a1", "a2"},
	}
	fork := n.Fork()
	var first weak.Pointer[bgp.State]
	for i, pr := range pairs {
		l, ok := f.Topo.LinkBetween(f.R[pr[0]], f.R[pr[1]])
		if !ok {
			t.Fatalf("fig2 has no link %s~%s", pr[0], pr[1])
		}
		fork.FailLink(l.ID)
		if err := fork.Reconverge(); err != nil {
			t.Fatal(err)
		}
		if dirty, skipped := fork.BGP().WarmStats(); dirty+skipped == 0 {
			t.Fatalf("failing %s~%s converged cold; the chain needs warm starts", pr[0], pr[1])
		}
		if i == 0 {
			first = weak.Make(fork.BGP())
		}
	}
	runtime.GC()
	runtime.GC()
	if first.Value() != nil {
		t.Fatalf("the fork's first converged bgp.State is still reachable after %d reconvergences", len(pairs)-1)
	}
	runtime.KeepAlive(fork)
}
