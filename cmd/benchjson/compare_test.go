package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const incrementalOutput = `pkg: netdiag/internal/netsim
BenchmarkReconvergeCold/fig2-link         	    2000	     80000 ns/op
BenchmarkReconvergeCold/fig1-link         	    2000	      6000 ns/op
BenchmarkReconvergeCold/orphan            	    2000	      1000 ns/op
BenchmarkReconvergeIncremental/fig1-link  	    2000	      2000 ns/op	         0 dirty-fraction
BenchmarkReconvergeIncremental/fig2-link  	    2000	     10000 ns/op	         0.4000 dirty-fraction
ok  	netdiag/internal/netsim	1.000s
`

func TestIncrementalSection(t *testing.T) {
	rep := mustParse(t, incrementalOutput)
	// Table order, whatever the input order; the orphan cold row has no
	// table entry, and dirty-fraction stays in its row.
	if len(rep.Derived) != 2 || rep.Derived[0].Name != "incremental-warm-speedup/fig1-link" {
		t.Fatalf("derived = %+v, want fig1-link then fig2-link", rep.Derived)
	}
	got := derivedByName(rep)
	wantDerived(t, got, "incremental-warm-speedup/fig1-link", 3, 3, 3)
	wantDerived(t, got, "incremental-warm-speedup/fig2-link", 8, 8, 8)
	if f := rep.Benchmarks[4].Extra["dirty-fraction"]; f != 0.4 {
		t.Fatalf("fig2-link dirty-fraction = %v, want 0.4", f)
	}
}

func TestIncrementalSectionAbsent(t *testing.T) {
	rep := mustParse(t, "BenchmarkReconvergeCold/fig1-link 	 10	 90000 ns/op\nok  	netdiag/internal/netsim	0.020s\n")
	if rep.Derived != nil {
		t.Fatalf("derived = %+v, want none without the incremental rows", rep.Derived)
	}
}

// writeReport marshals a Report to a temp file and returns its path.
func writeReport(t *testing.T, dir, name string, rep *Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// entry is a three-sample row with the given median and spread.
func entry(pkg, name string, ns, lo, hi float64) Entry {
	return Entry{Package: pkg, Name: name, Samples: 3, Iterations: 300, NsPerOp: ns, MinNsPerOp: lo, MaxNsPerOp: hi}
}

// compare writes both reports and runs the comparison over them.
func compare(t *testing.T, old, cur *Report) (bool, string) {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	regressed, err := runCompare(writeReport(t, dir, "old.json", old), writeReport(t, dir, "new.json", cur), &buf)
	if err != nil {
		t.Fatal(err)
	}
	return regressed, buf.String()
}

// TestCompareNoRegression: medians inside the band pass, rows and
// derived values alike.
func TestCompareNoRegression(t *testing.T) {
	old := &Report{
		Benchmarks: []Entry{entry("p", "BenchmarkA", 1000, 900, 1100), entry("p", "BenchmarkB", 2000, 1900, 2100)},
		Derived:    []Derived{{Name: "speedup", Better: "higher", Median: 6, Min: 5, Max: 7}},
	}
	cur := &Report{
		Benchmarks: []Entry{entry("p", "BenchmarkA", 2100, 2000, 2200), entry("p", "BenchmarkB", 1500, 1400, 1600)},
		Derived:    []Derived{{Name: "speedup", Better: "higher", Median: 2.6, Min: 2.5, Max: 2.7}},
	}
	regressed, out := compare(t, old, cur)
	if regressed || strings.Contains(out, "REGRESSION") {
		t.Fatalf("no regression expected:\n%s", out)
	}
	if !strings.Contains(out, "no regressions") {
		t.Fatalf("missing summary line:\n%s", out)
	}
}

// TestCompareDetectsRegression: one row tripling its work fails, and only
// that row is flagged.
func TestCompareDetectsRegression(t *testing.T) {
	old := &Report{Benchmarks: []Entry{entry("p", "BenchmarkA", 1000, 950, 1050), entry("p", "BenchmarkB", 500, 480, 520)}}
	cur := &Report{Benchmarks: []Entry{entry("p", "BenchmarkA", 3000, 2900, 3100), entry("p", "BenchmarkB", 510, 490, 530)}}
	regressed, out := compare(t, old, cur)
	if !regressed || strings.Count(out, "REGRESSION") != 1 {
		t.Fatalf("want exactly one REGRESSION:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "REGRESSION") && !strings.HasPrefix(line, "BenchmarkA ") {
			t.Fatalf("wrong row flagged: %q", line)
		}
	}
}

// TestCompareBackstopCatchesWideRows: a row whose own samples span more
// than 2x has a wide band, but a median more than 4x its old median still
// fails.
func TestCompareBackstopCatchesWideRows(t *testing.T) {
	old := &Report{Benchmarks: []Entry{entry("p", "BenchmarkWide", 1000, 600, 2500)}}
	inside := &Report{Benchmarks: []Entry{entry("p", "BenchmarkWide", 3900, 3800, 4000)}}
	if regressed, out := compare(t, old, inside); regressed {
		t.Fatalf("3.9x inside the band and the backstop flagged:\n%s", out)
	}
	beyond := &Report{Benchmarks: []Entry{entry("p", "BenchmarkWide", 4100, 4000, 4200)}}
	if regressed, out := compare(t, old, beyond); !regressed {
		t.Fatalf("4.1x the old median passed (2x the old worst sample is 5000):\n%s", out)
	}
}

// TestCompareCollapsesDuplicates: a report parsed from -count output
// carries one row per benchmark, so the comparison prints it once and
// gates its median, not an outlier sample.
func TestCompareCollapsesDuplicates(t *testing.T) {
	cur := mustParse(t, `pkg: p
BenchmarkA 	 1000	 1000 ns/op
BenchmarkA 	 1000	 1020 ns/op
BenchmarkA 	    1	60000 ns/op
ok  	p	1.000s
`)
	old := &Report{Benchmarks: []Entry{entry("p", "BenchmarkA", 1000, 990, 1010)}}
	regressed, out := compare(t, old, cur)
	if regressed {
		t.Fatalf("an outlier sample counted as a regression:\n%s", out)
	}
	if strings.Count(out, "BenchmarkA") != 1 {
		t.Fatalf("one benchmark printed more than once:\n%s", out)
	}
}

// TestCompareAddedAndRemoved: rows and derived values present on one
// side only are listed and never fail.
func TestCompareAddedAndRemoved(t *testing.T) {
	old := &Report{
		Benchmarks: []Entry{entry("p", "BenchmarkGone", 1000, 1000, 1000), entry("p", "BenchmarkKept", 500, 500, 500)},
		Derived:    []Derived{{Name: "gone-speedup", Better: "higher", Median: 9, Min: 9, Max: 9}},
	}
	cur := &Report{
		Benchmarks: []Entry{entry("p", "BenchmarkKept", 500, 500, 500), entry("p", "BenchmarkNew", 70000, 70000, 70000)},
		Derived:    []Derived{{Name: "new-speedup", Better: "higher", Median: 0.1, Min: 0.1, Max: 0.1}},
	}
	regressed, out := compare(t, old, cur)
	if regressed {
		t.Fatalf("added/removed values must not count as regressions:\n%s", out)
	}
	if strings.Count(out, "added") != 2 || strings.Count(out, "removed") != 2 {
		t.Fatalf("want two added and two removed lines:\n%s", out)
	}
}

func TestCompareDistinguishesProcs(t *testing.T) {
	e4 := entry("p", "BenchmarkA", 1000, 1000, 1000)
	e4.Procs = 4
	e8 := entry("p", "BenchmarkA", 1000, 1000, 1000)
	e8.Procs = 8
	_, out := compare(t, &Report{Benchmarks: []Entry{e4}}, &Report{Benchmarks: []Entry{e8}})
	if !strings.Contains(out, "added") || !strings.Contains(out, "removed") {
		t.Fatalf("same name at different GOMAXPROCS must not match:\n%s", out)
	}
}

func TestCompareMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if _, err := runCompare("/nonexistent/old.json", "/nonexistent/new.json", &buf); err == nil {
		t.Fatal("missing report file must error")
	}
}

// TestCompareGatesSnapshotSpeedup: a higher-is-better ratio gates on the
// low side. Falling to under half its old worst sample fails, even when
// no row left its own band.
func TestCompareGatesSnapshotSpeedup(t *testing.T) {
	speedup := func(med, lo, hi float64) *Report {
		return &Report{Derived: []Derived{{Name: "snapshot-load-speedup/fig1", Better: "higher", Median: med, Min: lo, Max: hi}}}
	}
	old := speedup(6, 5.6, 6.4)
	if regressed, out := compare(t, old, speedup(5.8, 5.5, 6.1)); regressed {
		t.Fatalf("held speedup counted as regression:\n%s", out)
	}
	regressed, out := compare(t, old, speedup(2.7, 2.6, 2.8))
	if !regressed || !strings.Contains(out, "snapshot-load-speedup/fig1") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("halved speedup not flagged:\n%s", out)
	}
}
