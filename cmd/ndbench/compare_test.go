package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100}
	for _, c := range []struct {
		name        string
		b           []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same", []float64{100, 99, 101, 100, 100}, true, 0.1, verdictOK},
		{"within bound", []float64{108, 107, 109, 108, 108}, true, 0.1, verdictOK},
		{"beyond bound", []float64{120, 119, 121, 120, 120}, true, 0.1, verdictWorse},
		{"beyond bound, higher is better", []float64{80, 79, 81, 80, 80}, false, 0.1, verdictWorse},
		{"better, higher is better", []float64{120, 119, 121, 120, 120}, false, 0.1, verdictOK},
		{"too noisy to tell", []float64{60, 140, 100, 180, 90}, true, 0.1, verdictUnresolved},
		{"noisy but every run better", []float64{50, 90, 60, 95, 70}, true, 0.1, verdictOK},
		{"no runs", nil, true, 0.1, verdictUnresolved},
	} {
		if got := verdict(base, c.b, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, vals ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range vals {
			rec := result{Workload: "serve-tiny", Correct: true, Attempted: 1,
				Metrics: map[string]metric{"latency_p50_ms": {Value: v, Unit: "ms"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		// A traced record never enters the comparison.
		if err := appendRecord(path, result{Workload: "serve-tiny", Trace: true, Metrics: map[string]metric{"latency_p50_ms": {Value: 1e9}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1.0, 1.01, 0.99, 1.0, 1.02)
	same := write("same.json", 1.01, 1.0, 0.99, 1.0, 1.0)
	slow := write("slow.json", 1.5, 1.49, 1.51, 1.5, 1.5)
	var out, errOut bytes.Buffer
	if code := runCompare(spec, a, same, &out, &errOut); code != 0 || !strings.Contains(out.String(), " ok") {
		t.Fatalf("same runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := runCompare(spec, a, slow, &out, &errOut); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Fatalf("slower runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric lists in this program
// in step with the repository's BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
