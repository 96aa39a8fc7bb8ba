package main

import (
	"strings"
	"testing"
)

const streamOutput = `goos: linux
pkg: netdiag/internal/stream
BenchmarkIngestTraceroute 	       5	   5000000 ns/op	    200000 records/s
BenchmarkIngestBGP        	       5	   2000000 ns/op	     16000 records/s
BenchmarkEventLoop        	       5	   5500000 ns/op	         0.3333 dirty-pair-fraction	     40000 event-lag-ns
PASS
ok  	netdiag/internal/stream	0.1s
`

func TestParseStreamSection(t *testing.T) {
	rep := mustParse(t, streamOutput)
	// The dirty-pair fraction is the one gated stream value; the ingest
	// throughput and event lag stay in their rows.
	got := derivedByName(rep)
	wantDerived(t, got, "stream-dirty-pair-fraction", 0.3333, 0.3333, 0.3333)
	if len(got) != 1 || got["stream-dirty-pair-fraction"].Better != "lower" {
		t.Fatalf("derived = %+v, want only a lower-is-better dirty-pair fraction", rep.Derived)
	}
	if lag := rep.Benchmarks[2].Extra["event-lag-ns"]; lag != 40000 {
		t.Fatalf("event-lag-ns = %v, want 40000 in the event-loop row", lag)
	}
}

func TestParseWithoutStreamBenchmarks(t *testing.T) {
	rep := mustParse(t, "BenchmarkIngestTraceroute 	 5	 5000000 ns/op	 200000 records/s\nok  	netdiag/internal/stream	0.1s\n")
	if rep.Derived != nil {
		t.Fatalf("derived = %+v, want none without the event loop", rep.Derived)
	}
}

// TestCompareGatesDirtyPairFraction pins the delta-store pruning gate: a
// lower-is-better value more than twice its old worst sample fails.
func TestCompareGatesDirtyPairFraction(t *testing.T) {
	frac := func(v float64) *Report {
		return &Report{Derived: []Derived{{Name: "stream-dirty-pair-fraction", Better: "lower", Median: v, Min: v, Max: v}}}
	}
	if regressed, out := compare(t, frac(0.33), frac(0.6)); regressed {
		t.Fatalf("fraction inside the band counted as regression:\n%s", out)
	}
	regressed, out := compare(t, frac(0.33), frac(0.85))
	if !regressed || !strings.Contains(out, "stream-dirty-pair-fraction") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("grown dirty-pair fraction not flagged:\n%s", out)
	}
}
