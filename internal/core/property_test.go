package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"netdiag/internal/topology"
)

// randomScenario builds a random but internally consistent measurement set:
// a pool of routers spread over a few ASes, random simple before-paths, one
// randomly chosen failed link; pairs whose path crosses it fail at T+, all
// other paths stay unchanged. It returns the measurements and the failed
// link.
func randomScenario(rng *rand.Rand) (*Measurements, Link) {
	const (
		numSensors = 5
		numRouters = 18
		numASes    = 4
	)
	hop := func(r int) Hop {
		return Hop{Node: Node(fmt.Sprintf("r%d", r)), AS: topology.ASN(1 + r%numASes)}
	}
	sensorHop := func(s int) Hop {
		return Hop{Node: Node(fmt.Sprintf("s%d", s)), AS: topology.ASN(1 + s%numASes)}
	}
	m := &Measurements{NumSensors: numSensors}
	var all []*TracePath
	for i := 0; i < numSensors; i++ {
		for j := 0; j < numSensors; j++ {
			if i == j {
				continue
			}
			p := &TracePath{SrcSensor: i, DstSensor: j, OK: true}
			p.Hops = append(p.Hops, sensorHop(i))
			used := map[int]bool{}
			for k := 0; k < 2+rng.Intn(4); k++ {
				r := rng.Intn(numRouters)
				if used[r] {
					continue
				}
				used[r] = true
				p.Hops = append(p.Hops, hop(r))
			}
			p.Hops = append(p.Hops, sensorHop(j))
			m.Before = append(m.Before, p)
			all = append(all, p)
		}
	}
	// Choose the failed link from a random path's interior.
	victim := all[rng.Intn(len(all))]
	li := rng.Intn(len(victim.Hops) - 1)
	failed := Link{From: victim.Hops[li].Node, To: victim.Hops[li+1].Node}
	for _, p := range m.Before {
		crossed := false
		var cut int
		for i, l := range p.Links() {
			if l == failed {
				crossed = true
				cut = i
				break
			}
		}
		if crossed {
			m.After = append(m.After, &TracePath{
				SrcSensor: p.SrcSensor, DstSensor: p.DstSensor, OK: false,
				Hops: append([]Hop{}, p.Hops[:cut+1]...),
			})
		} else {
			cp := *p
			m.After = append(m.After, &cp)
		}
	}
	return m, failed
}

// TestPropertyGreedyFindsInjectedLink checks the central guarantee the
// paper relies on: when a single link failure explains all observations,
// the failed link is in every failure set, gets the maximum greedy score,
// and therefore always enters the hypothesis (no false negatives).
func TestPropertyGreedyFindsInjectedLink(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, failed := randomScenario(rng)
		res, err := Run(m, Options{})
		if err != nil {
			return false
		}
		if res.UnexplainedFailures != 0 {
			return false
		}
		for _, h := range res.Hypothesis {
			if h.Link == failed {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNoWorkingLinkInHypothesis verifies the paper's hard
// constraint W: the hypothesis never contains a link that carried a
// working path.
func TestPropertyNoWorkingLinkInHypothesis(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, _ := randomScenario(rng)
		for _, opts := range []Options{
			{},
			{UseReroutes: true},
			{LogicalLinks: true, UseReroutes: true},
		} {
			res, err := Run(m, opts)
			if err != nil {
				return false
			}
			working := linkSet{}
			if opts.UseReroutes {
				for _, p := range m.After {
					if p.OK {
						for _, l := range p.Links() {
							working.add(l)
						}
					}
				}
			} else {
				after := map[pair]bool{}
				for _, p := range m.After {
					after[pair{p.SrcSensor, p.DstSensor}] = p.OK
				}
				for _, p := range m.Before {
					if after[pair{p.SrcSensor, p.DstSensor}] {
						for _, l := range p.Links() {
							working.add(l)
						}
					}
				}
			}
			for _, h := range res.Hypothesis {
				// Compare in physical space: logical links map back.
				if working.has(h.Link) || (h.PhysKnown && !IsLogical(h.Link.From) &&
					!IsLogical(h.Link.To) && working.has(h.Phys)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterministic verifies that diagnosing the same measurements
// twice yields the identical hypothesis (stable iteration everywhere).
func TestPropertyDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, _ := randomScenario(rng)
		a, err := Run(m, Options{LogicalLinks: true, UseReroutes: true})
		if err != nil {
			return false
		}
		b, err := Run(m, Options{LogicalLinks: true, UseReroutes: true})
		if err != nil {
			return false
		}
		if len(a.Hypothesis) != len(b.Hypothesis) {
			return false
		}
		for i := range a.Hypothesis {
			if a.Hypothesis[i].Link != b.Hypothesis[i].Link {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHypothesisIsMinimalish verifies every hypothesis link earns
// its place: it intersects at least one failure or reroute set (greedy
// never picks a zero-score link).
func TestPropertyHypothesisCoversSomething(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, _ := randomScenario(rng)
		res, err := Run(m, Options{})
		if err != nil {
			return false
		}
		failLinks := linkSet{}
		afterOK := map[pair]bool{}
		for _, p := range m.After {
			afterOK[pair{p.SrcSensor, p.DstSensor}] = p.OK
		}
		for _, p := range m.Before {
			if !afterOK[pair{p.SrcSensor, p.DstSensor}] {
				for _, l := range p.Links() {
					failLinks.add(l)
				}
			}
		}
		for _, h := range res.Hypothesis {
			if !failLinks.has(h.Link) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
