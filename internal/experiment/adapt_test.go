package experiment

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"netdiag/internal/ip2as"
	"netdiag/internal/probe"
	"netdiag/internal/topology"
)

// withoutAS returns the table ip2as.FromTopology builds over topo's
// router /24s, less those of AS as, so it cannot resolve any address of
// that AS.
func withoutAS(t *testing.T, topo *topology.Topology, as topology.ASN) *ip2as.Table {
	t.Helper()
	out := ip2as.New()
	for i := 0; i < topo.NumRouters(); i++ {
		r := topo.Router(topology.RouterID(i))
		if r.AS == as {
			continue
		}
		cidr := r.Addr[:strings.LastIndexByte(r.Addr, '.')] + ".0/24"
		if err := out.Insert(cidr, r.AS); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestMeasurementsAfterMatchesMapped pins Env.MeasurementsAfter to
// ToMeasurementsMapped over T+ meshes that mix unchanged, rerouted and
// failed paths, through the full table and through one that cannot
// resolve a transit AS, so that some unchanged paths carry unidentified
// hops and must not share their T− path.
func TestMeasurementsAfterMatchesMapped(t *testing.T) {
	env, _ := testEnv(t, 3, 10, PlaceRandomStubs)
	// The transit AS on the most T− paths is the one the partial table
	// loses.
	onPaths := map[topology.ASN]int{}
	sensorAS := map[topology.ASN]bool{}
	for _, as := range env.SensorASes {
		sensorAS[as] = true
	}
	for i := range env.BeforeMesh.Paths {
		for _, p := range env.BeforeMesh.Paths[i] {
			if p == nil {
				continue
			}
			seen := map[topology.ASN]bool{}
			for _, h := range p.Hops {
				if !sensorAS[h.AS] && !seen[h.AS] {
					seen[h.AS] = true
					onPaths[h.AS]++
				}
			}
		}
	}
	var hidden topology.ASN
	for as, n := range onPaths {
		if n > onPaths[hidden] || (n == onPaths[hidden] && as < hidden) {
			hidden = as
		}
	}
	envs := map[string]*Env{
		"full table":    env,
		"partial table": wrapEnv(env.Net, env.Sensors, env.BeforeMesh, withoutAS(t, env.Topo, hidden)),
	}

	var afters []*probe.Mesh
	rng := rand.New(rand.NewSource(11))
	for len(afters) < 6 {
		f, ok := env.SampleLinkFault(rng, 1+len(afters)%2)
		if !ok {
			t.Fatal("cannot sample a link fault")
		}
		fork := env.Net.Fork()
		for _, id := range f.Links {
			fork.FailLink(id)
		}
		if err := fork.Reconverge(); err != nil {
			t.Fatal(err)
		}
		afters = append(afters, fork.Mesh(env.Sensors))
	}

	// kinds counts the T+ paths of each kind, so the test proves it saw
	// every case it claims to cover.
	kinds := map[string]int{}
	for name, e := range envs {
		for k, after := range afters {
			got := e.MeasurementsAfter(after)
			want := ToMeasurementsMapped(e.BeforeMesh, after, e.IP2AS.Lookup)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, T+ mesh %d: MeasurementsAfter differs from ToMeasurementsMapped", name, k)
			}
			for i := range after.Paths {
				for j, p := range after.Paths[i] {
					if p == nil {
						continue
					}
					bp := e.BeforeMesh.Paths[i][j]
					switch {
					case !p.OK:
						kinds["failed"]++
					case !slices.Equal(p.Hops, bp.Hops):
						kinds["rerouted"]++
					case e.reuse[i][j] == nil:
						kinds["unchanged, unidentified hop"]++
					default:
						kinds["unchanged, shared"]++
					}
				}
			}
		}
	}
	for _, kind := range []string{"failed", "rerouted", "unchanged, unidentified hop", "unchanged, shared"} {
		if kinds[kind] == 0 {
			t.Errorf("no T+ path of kind %q (kinds: %v)", kind, kinds)
		}
	}
}
