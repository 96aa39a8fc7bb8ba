package experiment

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netdiag/internal/metrics"
)

func sampleFigure() *Figure {
	fig := newFigure("t1", "test figure")
	d := fig.dist("alpha")
	d.Add(0.5)
	d.Add(1.0)
	fig.Series = append(fig.Series, Series{Name: "line", X: []float64{1, 2}, Y: []float64{0.1, 0.2}})
	fig.Points = append(fig.Points, Point{X: 0.4, Y: 0.9})
	fig.Notes = append(fig.Notes, "a note")
	return fig
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	fig := sampleFigure()
	if err := fig.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t1_cdf.csv", "t1_series.csv", "t1_points.csv"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
		if err != nil {
			t.Fatalf("%s is not valid CSV: %v", name, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s has no data rows", name)
		}
	}
	// CDF file carries both samples.
	raw, _ := os.ReadFile(filepath.Join(dir, "t1_cdf.csv"))
	if !strings.Contains(string(raw), "alpha,0.5,0.5") {
		t.Fatalf("cdf content wrong:\n%s", raw)
	}
}

func TestRenderIncludesEverything(t *testing.T) {
	var buf bytes.Buffer
	sampleFigure().Render(&buf)
	out := buf.String()
	for _, want := range []string{"t1: test figure", "alpha", "series line", "1 scatter points", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestConfigScaled(t *testing.T) {
	cfg := DefaultConfig(1)
	s := cfg.Scaled(5)
	if s.Placements != 2 || s.FailuresPerPlacement != 20 {
		t.Fatalf("Scaled(5) = %d x %d", s.Placements, s.FailuresPerPlacement)
	}
	if same := cfg.Scaled(1); same.Placements != cfg.Placements {
		t.Fatal("Scaled(1) must be identity")
	}
	tiny := cfg.Scaled(1000)
	if tiny.Placements < 1 || tiny.FailuresPerPlacement < 1 {
		t.Fatal("Scaled must clamp at 1")
	}
}

func TestSkewMeasurementsFractions(t *testing.T) {
	env, _ := testEnv(t, 23, 5, PlaceRandomStubs)
	m := env.Measurements()
	// Mark every after path failed so staleness is observable.
	for _, p := range m.After {
		p.OK = false
	}
	out := skewMeasurements(m, 0.5)
	stale := 0
	for _, p := range out.After {
		if p.OK {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("half skew should make some paths stale")
	}
	if stale == len(out.After) {
		t.Fatal("skew must not make everything stale")
	}
	if n := len(skewMeasurements(m, 0).After); n != len(m.After) {
		t.Fatalf("zero skew changed path count: %d", n)
	}
}

func TestDistHelpers(t *testing.T) {
	var d metrics.Dist
	for i := 0; i < 10; i++ {
		d.Add(float64(i) / 10)
	}
	if d.Quantile(0) > d.Quantile(1) {
		t.Fatal("quantiles must be monotone")
	}
}
