package main

import (
	"bufio"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: netdiag/internal/server
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServerDiagnoseCold 	       1	   1000000 ns/op
BenchmarkServerDiagnoseWarm 	       1	    250000 ns/op
BenchmarkServerCoalesce     	       1	   2000000 ns/op	         0.8750 coalesce-hit-ratio
PASS
ok  	netdiag/internal/server	0.013s
BenchmarkMeshFill-4 	      10	     90000 ns/op	    4096 B/op	      12 allocs/op
ok  	netdiag/internal/probe	0.020s
`

func TestParseServerSection(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}

	co := rep.Benchmarks[2]
	if co.Name != "BenchmarkServerCoalesce" || co.Package != "netdiag/internal/server" {
		t.Fatalf("entry 2 = %+v", co)
	}
	if got := co.Extra["coalesce-hit-ratio"]; got != 0.875 {
		t.Fatalf("coalesce-hit-ratio extra = %v, want 0.875", got)
	}

	mesh := rep.Benchmarks[3]
	if mesh.Procs != 4 || mesh.BytesPerOp == nil || *mesh.BytesPerOp != 4096 ||
		mesh.AllocsPerOp == nil || *mesh.AllocsPerOp != 12 {
		t.Fatalf("entry 3 = %+v", mesh)
	}
	if len(mesh.Extra) != 0 {
		t.Fatalf("entry 3 has unexpected extras %v", mesh.Extra)
	}

	s := rep.Server
	if s == nil {
		t.Fatal("server section missing")
	}
	if s.ColdNsPerOp != 1000000 || s.WarmNsPerOp != 250000 || s.WarmSpeedup != 4 {
		t.Fatalf("server section = %+v", s)
	}
	if s.CoalesceHitRatio == nil || *s.CoalesceHitRatio != 0.875 {
		t.Fatalf("coalesce hit ratio = %v, want 0.875", s.CoalesceHitRatio)
	}
}

func TestParseWithoutServerBenchmarks(t *testing.T) {
	in := "BenchmarkMeshFill-4 	 10	 90000 ns/op\nok  	netdiag/internal/probe	0.020s\n"
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Server != nil {
		t.Fatalf("report = %+v, want 1 benchmark and no server section", rep)
	}
}
