package experiment

import (
	"testing"

	"netdiag/internal/core"
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
