package experiment

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"netdiag/internal/core"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// csvBytes runs the figure at the given parallelism and returns every CSV
// file it writes, keyed by file name.
func csvBytes(t *testing.T, fn func(Config) (*Figure, error), seed int64, par int) map[string][]byte {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Placements = 2
	cfg.FailuresPerPlacement = 6
	cfg.Parallelism = par
	return csvBytesCfg(t, fn, cfg)
}

// csvBytesCfg runs the figure under an explicit config and returns every
// CSV file it writes, keyed by file name.
func csvBytesCfg(t *testing.T, fn func(Config) (*Figure, error), cfg Config) map[string][]byte {
	t.Helper()
	fig, err := fn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := fig.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	if len(out) == 0 {
		t.Fatal("figure wrote no CSV files")
	}
	return out
}

// TestParallelismCSVDeterminism is the acceptance check for the parallel
// engine: for a fixed seed the figure CSVs must be byte-identical between
// sequential execution (parallelism 1) and a heavily parallel run
// (parallelism 8), for both the diagnosability study (Figure 5, parallel
// over placement×size×rep tasks) and a trial-driven scenario figure
// (Figure 7, parallel envs + speculative trial waves).
func TestParallelismCSVDeterminism(t *testing.T) {
	figs := []struct {
		name string
		fn   func(Config) (*Figure, error)
	}{
		{"fig5", Figure5},
		{"fig7", Figure7},
	}
	for _, f := range figs {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			seq := csvBytes(t, f.fn, 7707, 1)
			par := csvBytes(t, f.fn, 7707, 8)
			if len(seq) != len(par) {
				t.Fatalf("file sets differ: sequential %d files, parallel %d", len(seq), len(par))
			}
			for name, want := range seq {
				got, ok := par[name]
				if !ok {
					t.Fatalf("parallel run missing %s", name)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s differs between parallelism 1 and 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
						name, want, got)
				}
			}
		})
	}
}

// TestTelemetryCSVDeterminism is the no-perturbation acceptance check for
// the telemetry layer: attaching a registry to an experiment run must leave
// every figure CSV byte-identical, while the registry itself records the
// pipeline's activity.
func TestTelemetryCSVDeterminism(t *testing.T) {
	figs := []struct {
		name string
		fn   func(Config) (*Figure, error)
	}{
		{"fig5", Figure5},
		{"fig7", Figure7},
	}
	for _, f := range figs {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(7707)
			cfg.Placements = 2
			cfg.FailuresPerPlacement = 6
			cfg.Parallelism = 4
			plain := csvBytesCfg(t, f.fn, cfg)

			cfg.Telemetry = telemetry.New()
			observed := csvBytesCfg(t, f.fn, cfg)

			if len(plain) != len(observed) {
				t.Fatalf("file sets differ: %d files without telemetry, %d with", len(plain), len(observed))
			}
			for name, want := range plain {
				got, ok := observed[name]
				if !ok {
					t.Fatalf("telemetry run missing %s", name)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s differs with telemetry attached:\n--- without ---\n%s\n--- with ---\n%s",
						name, want, got)
				}
			}
			snap := cfg.Telemetry.Snapshot()
			if snap.Counters["netsim.reconverges"] == 0 {
				t.Error("telemetry run recorded no netsim.reconverges")
			}
			if snap.Counters["pool.tasks_started"] == 0 {
				t.Error("telemetry run recorded no pool.tasks_started")
			}
			if f.name == "fig7" && snap.Counters["experiment.trials_run"] == 0 {
				t.Error("telemetry run recorded no experiment.trials_run")
			}
		})
	}
}

// TestTelemetryHypothesisDeterminism asserts the rendered hypothesis of a
// diagnosis is byte-identical with and without telemetry and debug logging
// attached — observation must never steer the greedy cover.
func TestTelemetryHypothesisDeterminism(t *testing.T) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(7707))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sensors, _, err := PlaceSensors(res, PlaceRandomStubs, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(res.Topo, sensors)
	if err != nil {
		t.Fatal(err)
	}
	asx := res.Cores[0]
	var td *TrialData
	for td == nil {
		f, ok := env.SampleLinkFault(rng, 3)
		if !ok {
			t.Fatal("no faults to sample")
		}
		var err error
		td, err = env.RunTrial(f, asx, nil, nil)
		if err != nil && err != ErrNoImpact {
			t.Fatal(err)
		}
	}

	plain, err := core.Run(td.Meas, bgpigpOpts(td))
	if err != nil {
		t.Fatal(err)
	}
	opts := bgpigpOpts(td)
	opts.Telemetry = telemetry.New()
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}))
	observed, err := core.Run(td.Meas, opts)
	if err != nil {
		t.Fatal(err)
	}

	want := []byte(fmt.Sprintf("%v %d %d", plain.Hypothesis, plain.Iterations, plain.UnexplainedFailures))
	got := []byte(fmt.Sprintf("%v %d %d", observed.Hypothesis, observed.Iterations, observed.UnexplainedFailures))
	if !bytes.Equal(want, got) {
		t.Fatalf("hypothesis differs with telemetry attached:\nwithout %s\nwith    %s", want, got)
	}
	if len(observed.Telemetry) == 0 {
		t.Error("observed run returned no phase spans")
	}
	if len(plain.Telemetry) != 0 {
		t.Error("unobserved run returned phase spans")
	}
}
