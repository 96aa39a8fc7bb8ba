package netsim

import (
	"fmt"
	"sync"
	"testing"

	"netdiag/internal/probe"
	"netdiag/internal/topology"
)

// meshKey serializes a mesh to a comparable string.
func meshKey(m *probe.Mesh) string {
	s := ""
	for i := range m.Paths {
		for j, p := range m.Paths[i] {
			if p == nil {
				continue
			}
			s += fmt.Sprintf("%d->%d:%s;", i, j, p.String())
		}
	}
	return s
}

// TestConcurrentNew converges several independent networks over one shared
// Topology at parallelism 4, concurrently, each network's per-AS SPF
// workers writing their rows into one table. The topology is immutable and
// each Network owns its state, so this must be race-free (run with -race)
// and every goroutine must converge to the same forwarding behavior.
func TestConcurrentNew(t *testing.T) {
	f := topology.BuildFig2()
	sensors := []topology.RouterID{f.S1, f.S2, f.S3}
	origins := []topology.ASN{f.ASA, f.ASB, f.ASC}

	const goroutines = 8
	keys := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n, err := New(f.Topo, origins, WithParallelism(4))
			if err != nil {
				errs[g] = err
				return
			}
			keys[g] = meshKey(n.Mesh(sensors))
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < goroutines; g++ {
		if keys[g] != keys[0] {
			t.Fatalf("goroutine %d converged differently:\n%s\nvs\n%s", g, keys[g], keys[0])
		}
	}
}

// TestConcurrentForkTrials runs fault trials on concurrent forks of one
// converged network while other goroutines keep reading the base network's
// mesh. Forks copy the mutable fault state and share only immutable
// converged inputs, so the base must stay untouched and -race must stay
// quiet. Each fork's outcome must equal the same fault applied
// sequentially.
func TestConcurrentForkTrials(t *testing.T) {
	f := topology.BuildFig2()
	sensors := []topology.RouterID{f.S1, f.S2, f.S3}
	base, err := New(f.Topo, []topology.ASN{f.ASA, f.ASB, f.ASC}, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	baseKey := meshKey(base.Mesh(sensors))

	faults := []string{"b1", "y1", "x1", "a1"}
	want := make([]string, len(faults))
	for i, name := range faults {
		l, ok := f.Topo.LinkBetween(f.R[name], f.R[neighborOf(name)])
		if !ok {
			t.Fatalf("no link at %s", name)
		}
		fork := base.Fork()
		fork.FailLink(l.ID)
		if err := fork.Reconverge(); err != nil {
			t.Fatal(err)
		}
		want[i] = meshKey(fork.Mesh(sensors))
	}

	got := make([]string, len(faults))
	trialErrs := make([]error, len(faults))
	var wg sync.WaitGroup
	for i, name := range faults {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			l, _ := f.Topo.LinkBetween(f.R[name], f.R[neighborOf(name)])
			fork := base.Fork()
			fork.FailLink(l.ID)
			if err := fork.Reconverge(); err != nil {
				trialErrs[i] = err
				return
			}
			got[i] = meshKey(fork.Mesh(sensors))
		}(i, name)
		// Concurrent readers of the (immutable, converged) base network.
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = meshKey(base.Mesh(sensors))
		}()
	}
	wg.Wait()
	for i, err := range trialErrs {
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	for i := range faults {
		if got[i] != want[i] {
			t.Fatalf("fork trial %d (%s) diverged from sequential run", i, faults[i])
		}
	}
	if k := meshKey(base.Mesh(sensors)); k != baseKey {
		t.Fatal("fork trials mutated the base network")
	}
}

// neighborOf pairs each fault router with an adjacent one on Fig 2.
func neighborOf(name string) string {
	switch name {
	case "b1":
		return "b2"
	case "y1":
		return "y4"
	case "x1":
		return "x2"
	case "a1":
		return "a2"
	}
	return ""
}
