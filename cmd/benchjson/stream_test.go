package main

import "testing"

const streamOutput = `goos: linux
pkg: netdiag/internal/stream
BenchmarkIngestTraceroute 	       5	   5000000 ns/op	    200000 records/s
BenchmarkIngestBGP        	       5	   2000000 ns/op	     16000 records/s
BenchmarkEventLoop        	       5	   5500000 ns/op	     40000 event-lag-ns
PASS
ok  	netdiag/internal/stream	0.1s
`

func TestParseStreamSection(t *testing.T) {
	rep := mustParse(t, streamOutput)
	// No stream value is derived: the ingest throughput and event lag stay
	// in their rows.
	if rep.Derived != nil {
		t.Fatalf("derived = %+v, want none from the stream rows", rep.Derived)
	}
	if lag := rep.Benchmarks[2].Extra["event-lag-ns"]; lag != 40000 {
		t.Fatalf("event-lag-ns = %v, want 40000 in the event-loop row", lag)
	}
}

func TestParseWithoutStreamBenchmarks(t *testing.T) {
	rep := mustParse(t, "BenchmarkIngestTraceroute 	 5	 5000000 ns/op	 200000 records/s\nok  	netdiag/internal/stream	0.1s\n")
	if rep.Derived != nil {
		t.Fatalf("derived = %+v, want none from a stream row", rep.Derived)
	}
}
