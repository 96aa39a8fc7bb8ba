package main

import (
	"bufio"
	"math"
	"strings"
	"testing"
)

// countOutput is `-count 3` output of two packages: the first opened by
// its "pkg:" line, the second stamped only by its closing "ok" line.
const countOutput = `goos: linux
goarch: amd64
pkg: netdiag/internal/server
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServerDiagnoseCold-2 	     100	   1000000 ns/op
BenchmarkServerDiagnoseCold-2 	     110	   1100000 ns/op
BenchmarkServerDiagnoseCold-2 	     120	    900000 ns/op
BenchmarkServerDiagnoseWarm-2 	     400	    250000 ns/op
BenchmarkServerDiagnoseWarm-2 	     400	    200000 ns/op
BenchmarkServerDiagnoseWarm-2 	     400	    300000 ns/op
BenchmarkServerCoalesce-2     	      50	   2000000 ns/op	         0.8750 coalesce-hit-ratio
BenchmarkServerCoalesce-2     	      50	   2100000 ns/op	         0.8000 coalesce-hit-ratio
BenchmarkServerCoalesce-2     	      50	   1900000 ns/op	         0.9000 coalesce-hit-ratio
PASS
ok  	netdiag/internal/server	3.013s
BenchmarkMeshFill-4 	      10	     90000 ns/op	    4096 B/op	      12 allocs/op
BenchmarkMeshFill-4 	      10	     70000 ns/op	    4096 B/op	      12 allocs/op
BenchmarkMeshFill-4 	      10	     80000 ns/op	    4160 B/op	      13 allocs/op
ok  	netdiag/internal/probe	0.020s
`

func mustParse(t *testing.T, out string) *Report {
	t.Helper()
	rep, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// derivedByName indexes a report's derived values.
func derivedByName(rep *Report) map[string]Derived {
	m := map[string]Derived{}
	for _, d := range rep.Derived {
		m[d.Name] = d
	}
	return m
}

// wantDerived checks one derived value's median, min and max.
func wantDerived(t *testing.T, got map[string]Derived, name string, med, lo, hi float64) {
	t.Helper()
	d, ok := got[name]
	if !ok {
		t.Fatalf("derived value %s missing from %+v", name, got)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	if !near(d.Median, med) || !near(d.Min, lo) || !near(d.Max, hi) {
		t.Fatalf("%s = median %v, min %v, max %v; want %v, %v, %v", name, d.Median, d.Min, d.Max, med, lo, hi)
	}
}

// TestParseWritesEachBenchmarkOnce folds each benchmark's -count samples
// into one row: median ns/op with its min and max, the sample count and
// summed iterations, and the median of every other column.
func TestParseWritesEachBenchmarkOnce(t *testing.T) {
	rep := mustParse(t, countOutput)
	var names []string
	for _, e := range rep.Benchmarks {
		names = append(names, e.Name)
	}
	if got := strings.Join(names, ","); got != "BenchmarkServerDiagnoseCold,BenchmarkServerDiagnoseWarm,BenchmarkServerCoalesce,BenchmarkMeshFill" {
		t.Fatalf("rows = %s, want one per benchmark in first-appearance order", got)
	}

	cold := rep.Benchmarks[0]
	if cold.Package != "netdiag/internal/server" || cold.Procs != 2 || cold.Samples != 3 || cold.Iterations != 330 {
		t.Fatalf("cold row = %+v", cold)
	}
	if cold.NsPerOp != 1000000 || cold.MinNsPerOp != 900000 || cold.MaxNsPerOp != 1100000 {
		t.Fatalf("cold ns/op = median %v, min %v, max %v", cold.NsPerOp, cold.MinNsPerOp, cold.MaxNsPerOp)
	}
	if got := rep.Benchmarks[2].Extra["coalesce-hit-ratio"]; got != 0.875 {
		t.Fatalf("coalesce-hit-ratio = %v, want the median 0.875", got)
	}

	mesh := rep.Benchmarks[3]
	if mesh.Package != "netdiag/internal/probe" || mesh.Procs != 4 || mesh.Samples != 3 {
		t.Fatalf("mesh row = %+v", mesh)
	}
	if mesh.NsPerOp != 80000 || mesh.MinNsPerOp != 70000 || mesh.MaxNsPerOp != 90000 {
		t.Fatalf("mesh ns/op = median %v, min %v, max %v", mesh.NsPerOp, mesh.MinNsPerOp, mesh.MaxNsPerOp)
	}
	if mesh.BytesPerOp == nil || *mesh.BytesPerOp != 4096 || mesh.AllocsPerOp == nil || *mesh.AllocsPerOp != 12 {
		t.Fatalf("mesh B/op, allocs/op = %v, %v; want medians 4096, 12", mesh.BytesPerOp, mesh.AllocsPerOp)
	}
	if len(mesh.Extra) != 0 {
		t.Fatalf("mesh row has unexpected extras %v", mesh.Extra)
	}
}

func TestParseServerSection(t *testing.T) {
	rep := mustParse(t, countOutput)
	// Cold over warm: median 1000000/250000, min 900000/300000, max
	// 1100000/200000. The coalesce hit ratio stays in its row only.
	got := derivedByName(rep)
	wantDerived(t, got, "server-warm-speedup", 4, 3, 5.5)
	if len(got) != 1 || got["server-warm-speedup"].Better != "higher" {
		t.Fatalf("derived = %+v, want only a higher-is-better server-warm-speedup", rep.Derived)
	}
}

func TestParseWithoutServerBenchmarks(t *testing.T) {
	// A cold row without its warm denominator derives nothing.
	rep := mustParse(t, "BenchmarkServerDiagnoseCold 	 10	 90000 ns/op\nok  	netdiag/internal/server	0.020s\n")
	if len(rep.Benchmarks) != 1 || rep.Derived != nil {
		t.Fatalf("report = %+v, want 1 row and no derived value", rep)
	}
}
