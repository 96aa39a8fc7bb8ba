package experiment

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"netdiag/internal/core"
	"netdiag/internal/telemetry"
)

func TestGenerateLargeMeshShape(t *testing.T) {
	cfg := DefaultLargeMesh(600, 7)
	m := GenerateLargeMesh(cfg)
	if m.NumSensors != 600 {
		t.Fatalf("NumSensors = %d", m.NumSensors)
	}
	if len(m.Before) != 600*cfg.DestsPerSensor || len(m.After) != len(m.Before) {
		t.Fatalf("paths: %d before, %d after", len(m.Before), len(m.After))
	}
	var failures, reroutes int
	for i, p := range m.After {
		if !p.OK {
			failures++
		} else if len(p.Hops) != len(m.Before[i].Hops) || p.Hops[2] != m.Before[i].Hops[2] {
			reroutes++
		}
	}
	if failures == 0 || reroutes == 0 {
		t.Fatalf("mesh has %d failures, %d reroutes; want both non-zero", failures, reroutes)
	}
	// Deterministic in the config.
	again := GenerateLargeMesh(cfg)
	if len(again.After) != len(m.After) {
		t.Fatal("regeneration diverged")
	}
	for i := range m.After {
		if m.After[i].OK != again.After[i].OK || len(m.After[i].Hops) != len(again.After[i].Hops) {
			t.Fatalf("regeneration diverged at path %d", i)
		}
	}
}

// TestLargeMeshEngineEquivalence extends the differential net to the
// benchmark generator's mesh shape (hub-concentrated overlapping sets) at a
// size where the map engine is still cheap to run: Tomo, ND-edge and
// per-prefix ND-edge, so both front halves meet every expansion mode.
func TestLargeMeshEngineEquivalence(t *testing.T) {
	perPrefix := edgeOpts()
	perPrefix.PerPrefixLogical = true
	variants := []struct {
		name string
		opts core.Options
	}{
		{"tomo", tomoOpts()},
		{"nd-edge", edgeOpts()},
		{"nd-edge-per-prefix", perPrefix},
	}
	for _, seed := range []int64{7, 19} {
		m := GenerateLargeMesh(DefaultLargeMesh(300, seed))
		for _, v := range variants {
			opts := v.opts
			res, err := core.Run(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.RunReference(context.Background(), m, opts)
			if err != nil {
				t.Fatal(err)
			}
			var bb, mb bytes.Buffer
			if err := res.Wire(v.name).Encode(&bb); err != nil {
				t.Fatal(err)
			}
			if err := ref.Wire(v.name).Encode(&mb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bb.Bytes(), mb.Bytes()) {
				t.Fatalf("seed %d %s: engines diverge on large mesh\nbitset:\n%s\nmap:\n%s",
					seed, v.name, bb.String(), mb.String())
			}
		}
	}
}

// TestLargeMeshExpandedSize pins the §3.1 graph size of the 2k-sensor
// benchmark mesh at both tag granularities. The scalability study and the
// benchmark's expand pass both read core.ExpandedSize; these counts are
// the string expander's, so a change to the ID expansion that alters the
// graph shows here.
func TestLargeMeshExpandedSize(t *testing.T) {
	m := GenerateLargeMesh(DefaultLargeMesh(2000, 7))
	for _, c := range []struct {
		perPrefix    bool
		nodes, links int
	}{
		{false, 6460, 12808},
		{true, 45116, 90120},
	} {
		if n, l := core.ExpandedSize(m, c.perPrefix); n != c.nodes || l != c.links {
			t.Errorf("ExpandedSize(perPrefix=%v) = (%d, %d), want (%d, %d)",
				c.perPrefix, n, l, c.nodes, c.links)
		}
	}
}

// benchDiagnose runs a full ND-edge diagnosis of a hub-failure event on an
// n-sensor mesh. Beyond the standard ns/op it reports, from the run's
// telemetry spans, the front-half time (validate + expand + build_sets:
// reading the measurements into IDs and building the sets) and the
// greedy-phase time, a sensors-per-second throughput figure for the
// scalability curve, and the bytes and allocations of one diagnosis. benchjson's diagnose section pairs the Map and Bitset
// series into speedup ratios.
func benchDiagnose(b *testing.B, n int, run func(context.Context, *core.Measurements, core.Options) (*core.Result, error)) {
	m := GenerateLargeMesh(DefaultLargeMesh(n, 7))
	opts := edgeOpts()
	opts.Telemetry = telemetry.New()
	var frontNs, greedyNs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(context.Background(), m, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations == 0 || len(res.Hypothesis) == 0 {
			b.Fatalf("degenerate diagnosis: %d iterations, %d hypothesis links",
				res.Iterations, len(res.Hypothesis))
		}
		for _, sp := range res.Telemetry {
			switch sp.Name {
			case "validate", "expand", "build_sets":
				frontNs += int64(sp.Duration)
			case "greedy":
				greedyNs += int64(sp.Duration)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(frontNs)/float64(b.N), "front-ns/op")
	b.ReportMetric(float64(greedyNs)/float64(b.N), "greedy-ns/op")
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sensors/s")
}

// BenchmarkDiagnoseBitset is the scalability series of the bitset engine;
// 10000 sensors is the headline point — the map engine has no 10k entry
// because full per-iteration rescoring makes it impractical there (see the
// README performance table), and `make bench` runs every benchmark.
func BenchmarkDiagnoseBitset(b *testing.B) {
	for _, n := range []int{600, 2000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) { benchDiagnose(b, n, core.RunCtx) })
	}
}

// BenchmarkDiagnoseMap is the reference series for the speedup ratios.
func BenchmarkDiagnoseMap(b *testing.B) {
	for _, n := range []int{600, 2000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) { benchDiagnose(b, n, core.RunReference) })
	}
}
