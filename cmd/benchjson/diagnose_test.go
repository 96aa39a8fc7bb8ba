package main

import (
	"strings"
	"testing"
)

const diagnoseOutput = `pkg: netdiag/internal/experiment
BenchmarkDiagnoseBitset/600      	      20	  70000000 ns/op	    550000 greedy-ns/op	      8500 sensors/s
BenchmarkDiagnoseBitset/600      	      20	  60000000 ns/op	    500000 greedy-ns/op	      9000 sensors/s
BenchmarkDiagnoseBitset/600      	      20	  80000000 ns/op	    600000 greedy-ns/op	      8000 sensors/s
BenchmarkDiagnoseBitset/10000    	       1	1900000000 ns/op	  74000000 greedy-ns/op	      5200 sensors/s
BenchmarkDiagnoseBitset/2000     	       5	 280000000 ns/op	   4800000 greedy-ns/op	      7000 sensors/s
BenchmarkDiagnoseMap/600         	       5	 200000000 ns/op	 148000000 greedy-ns/op	      3000 sensors/s
BenchmarkDiagnoseMap/600         	       5	 210000000 ns/op	 150000000 greedy-ns/op	      2900 sensors/s
BenchmarkDiagnoseMap/600         	       5	 190000000 ns/op	 146000000 greedy-ns/op	      3100 sensors/s
PASS
ok  	netdiag/internal/experiment	30.000s
`

func TestParseDiagnoseSection(t *testing.T) {
	rep := mustParse(t, diagnoseOutput)
	// Map over bitset at 600 sensors: end to end with the ns/op spread,
	// and on the greedy-ns/op column, which keeps only its median. The
	// bitset-only sizes derive nothing; sensors/s stays in the rows.
	got := derivedByName(rep)
	wantDerived(t, got, "diagnose-speedup/600", 200e6/70e6, 190e6/80e6, 210e6/60e6)
	wantDerived(t, got, "diagnose-greedy-speedup/600", 148e6/550e3, 148e6/550e3, 148e6/550e3)
	if len(got) != 2 {
		t.Fatalf("derived = %+v, want only the two 600-sensor ratios", rep.Derived)
	}
}

func TestDiagnoseSectionAbsent(t *testing.T) {
	// A map-only run has no bitset denominator, so nothing derives.
	rep := mustParse(t, "BenchmarkDiagnoseMap/600 	 10	 90000 ns/op	 80000 greedy-ns/op\nok  	netdiag/internal/experiment	0.020s\n")
	if rep.Derived != nil {
		t.Fatalf("derived = %+v, want none", rep.Derived)
	}
}

// TestCompareGatesDiagnoseSpeedup pins the default engine's win over the
// map reference: an end-to-end speedup that collapses fails the compare
// and names the value.
func TestCompareGatesDiagnoseSpeedup(t *testing.T) {
	speedup := func(med, lo, hi float64) *Report {
		return &Report{Derived: []Derived{{Name: "diagnose-speedup/600", Better: "higher", Median: med, Min: lo, Max: hi}}}
	}
	old := speedup(28, 25, 31)
	if regressed, out := compare(t, old, speedup(27, 24, 30)); regressed {
		t.Fatalf("held speedup counted as regression:\n%s", out)
	}
	regressed, out := compare(t, old, speedup(4, 3.5, 4.5))
	if !regressed || !strings.Contains(out, "diagnose-speedup/600") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("collapsed speedup not flagged:\n%s", out)
	}
}
