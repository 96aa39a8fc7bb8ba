package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges the runs of B against the runs of A for one metric. B is
// worse when its median is worse than A's by more than bound (a share of
// A's median). When either side's spread — the distance between its
// quartiles, as a share of its median — exceeds the bound, the medians
// cannot resolve a change of that size: the verdict is unresolved unless
// every run of B reads better than every run of A.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	worse := func(x, y float64) bool { // x is worse than y
		if lowerBetter {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !worse(y, x) {
				allBetter = false
			}
		}
	}
	if allBetter {
		return verdictOK
	}
	if spread(a) > bound || spread(b) > bound {
		return verdictUnresolved
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	limit := ma * (1 + bound)
	if !lowerBetter {
		limit = ma * (1 - bound)
	}
	if worse(mb, limit) {
		return verdictWorse
	}
	return verdictOK
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// runCompare prints, for each workload and end-to-end metric, both sides'
// median and quartiles and the verdict, and exits 1 when any is worse.
func runCompare(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "ndbench: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "ndbench: %s: %v\n", specPath, err)
		return 2
	}
	runsA, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "ndbench: %v\n", err)
		return 2
	}
	runsB, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "ndbench: %v\n", err)
		return 2
	}
	values := func(runs []result, wl, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(stdout, "%-14s %-16s %5s %35s %5s %35s %s\n", "workload", "metric", "runsA", "A q1 / median / q3", "runsB", "B q1 / median / q3", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(runsA, wl.name, m.Name), values(runsB, wl.name, m.Name)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.Better == "lower", m.Bound)
			if v == verdictWorse {
				code = 1
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			fmt.Fprintf(stdout, "%-14s %-16s %5d %11.5g %11.5g %11.5g %5d %11.5g %11.5g %11.5g %s\n",
				wl.name, m.Name, len(a), a1, a2, a3, len(b), b1, b2, b3, v)
		}
	}
	return code
}
