package main

import (
	"bufio"
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
	rep, err := parse(bufio.NewScanner(strings.NewReader(incrementalOutput)))
	if err != nil {
		t.Fatal(err)
	}
	inc := rep.Incremental
	if len(inc) != 2 {
		t.Fatalf("incremental section has %d scenarios, want 2 (orphan cold entry must be dropped): %+v", len(inc), inc)
	}
	// Sorted by scenario name regardless of input order.
	if inc[0].Scenario != "fig1-link" || inc[1].Scenario != "fig2-link" {
		t.Fatalf("scenario order = %s, %s", inc[0].Scenario, inc[1].Scenario)
	}
	if inc[0].ColdNsPerOp != 6000 || inc[0].WarmNsPerOp != 2000 || inc[0].WarmSpeedup != 3 {
		t.Fatalf("fig1-link = %+v", inc[0])
	}
	if inc[0].DirtyFraction == nil || *inc[0].DirtyFraction != 0 {
		t.Fatalf("fig1-link dirty fraction = %v, want 0", inc[0].DirtyFraction)
	}
	if inc[1].WarmSpeedup != 8 || inc[1].DirtyFraction == nil || *inc[1].DirtyFraction != 0.4 {
		t.Fatalf("fig2-link = %+v", inc[1])
	}
}

// The bench target runs the Reconverge pairs twice: once in the 1x
// whole-repo sweep and again at -benchtime 200x. The higher-iteration
// sample must win everywhere.
const duplicateOutput = `pkg: netdiag/internal/netsim
BenchmarkReconvergeCold/fig1-link         	       1	     60000 ns/op
BenchmarkReconvergeIncremental/fig1-link  	       1	     50000 ns/op	         0 dirty-fraction
ok  	netdiag/internal/netsim	1.000s
pkg: netdiag/internal/netsim
BenchmarkReconvergeCold/fig1-link         	     200	      6000 ns/op
BenchmarkReconvergeIncremental/fig1-link  	     200	      2000 ns/op	         0 dirty-fraction
ok  	netdiag/internal/netsim	1.000s
`

func TestIncrementalSectionKeepsHighestIterationSample(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(duplicateOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Incremental) != 1 {
		t.Fatalf("incremental section = %+v, want 1 scenario", rep.Incremental)
	}
	got := rep.Incremental[0]
	if got.ColdNsPerOp != 6000 || got.WarmNsPerOp != 2000 || got.WarmSpeedup != 3 {
		t.Fatalf("duplicate rows not collapsed to the 200-iteration sample: %+v", got)
	}
}

// TestParseWritesEachBenchmarkOnce checks the report itself, not just
// its derived sections, carries one row per benchmark: the re-run's
// higher-iteration sample.
func TestParseWritesEachBenchmarkOnce(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(duplicateOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d rows, want 2 (one per benchmark): %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	for _, e := range rep.Benchmarks {
		if e.Iterations != 200 {
			t.Errorf("%s kept the %d-iteration row, want the 200-iteration re-run", e.Name, e.Iterations)
		}
	}
	if rep.Benchmarks[0].Name != "BenchmarkReconvergeCold/fig1-link" {
		t.Errorf("first row = %s, want first-appearance order", rep.Benchmarks[0].Name)
	}
}

func TestCompareCollapsesDuplicates(t *testing.T) {
	dir := t.TempDir()
	slow := entry("p", "BenchmarkA", 60000)
	slow.Iterations = 1
	fast := entry("p", "BenchmarkA", 1000)
	fast.Iterations = 200
	oldPath := writeReport(t, dir, "old.json", &Report{Benchmarks: []Entry{
		entry("p", "BenchmarkA", 1000),
	}})
	// The stale 1x sample (60x slower) must not register as a regression;
	// the 200x sample is the measurement.
	newPath := writeReport(t, dir, "new.json", &Report{Benchmarks: []Entry{slow, fast}})
	var buf bytes.Buffer
	regressed, err := runCompare(oldPath, newPath, 10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("stale low-iteration duplicate counted as regression:\n%s", buf.String())
	}
	if strings.Count(buf.String(), "BenchmarkA") != 1 {
		t.Fatalf("duplicate rows printed:\n%s", buf.String())
	}
}

func TestIncrementalSectionAbsent(t *testing.T) {
	in := "BenchmarkMeshFill-4 	 10	 90000 ns/op\nok  	netdiag/internal/probe	0.020s\n"
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incremental != nil {
		t.Fatalf("incremental section = %+v, want absent", rep.Incremental)
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

func entry(pkg, name string, ns float64) Entry {
	return Entry{Package: pkg, Name: name, Iterations: 100, NsPerOp: ns}
}

func TestCompareNoRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", &Report{Benchmarks: []Entry{
		entry("p", "BenchmarkA", 1000),
		entry("p", "BenchmarkB", 2000),
	}})
	newPath := writeReport(t, dir, "new.json", &Report{Benchmarks: []Entry{
		entry("p", "BenchmarkA", 1050), // +5%, under threshold
		entry("p", "BenchmarkB", 1500), // improvement
	}})
	var buf bytes.Buffer
	regressed, err := runCompare(oldPath, newPath, 10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("no regression expected:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions beyond 10.0%") {
		t.Fatalf("missing summary line:\n%s", buf.String())
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", &Report{Benchmarks: []Entry{
		entry("p", "BenchmarkA", 1000),
	}})
	newPath := writeReport(t, dir, "new.json", &Report{Benchmarks: []Entry{
		entry("p", "BenchmarkA", 1300), // +30%
	}})
	var buf bytes.Buffer
	regressed, err := runCompare(oldPath, newPath, 10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("regression not detected:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("missing REGRESSION marker:\n%s", buf.String())
	}
}

func TestCompareAddedAndRemoved(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", &Report{Benchmarks: []Entry{
		entry("p", "BenchmarkGone", 1000),
		entry("p", "BenchmarkKept", 500),
	}})
	newPath := writeReport(t, dir, "new.json", &Report{Benchmarks: []Entry{
		entry("p", "BenchmarkKept", 500),
		entry("p", "BenchmarkNew", 700),
	}})
	var buf bytes.Buffer
	regressed, err := runCompare(oldPath, newPath, 10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("added/removed benchmarks must not count as regressions:\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "added") || !strings.Contains(out, "removed") {
		t.Fatalf("added/removed rows missing:\n%s", out)
	}
}

func TestCompareDistinguishesProcs(t *testing.T) {
	dir := t.TempDir()
	e4 := entry("p", "BenchmarkA", 1000)
	e4.Procs = 4
	e8 := entry("p", "BenchmarkA", 1000)
	e8.Procs = 8
	oldPath := writeReport(t, dir, "old.json", &Report{Benchmarks: []Entry{e4}})
	newPath := writeReport(t, dir, "new.json", &Report{Benchmarks: []Entry{e8}})
	var buf bytes.Buffer
	if _, err := runCompare(oldPath, newPath, 10, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "added") || !strings.Contains(out, "removed") {
		t.Fatalf("same name at different GOMAXPROCS must not match:\n%s", out)
	}
}

func TestCompareMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if _, err := runCompare("/nonexistent/old.json", "/nonexistent/new.json", 10, &buf); err == nil {
		t.Fatal("missing report file must error")
	}
}

const snapshotOutput = `pkg: netdiag/internal/snapshot
BenchmarkSnapshotEncode/fig1     	    5000	      4000 ns/op	 100 MB/s
BenchmarkSnapshotDecode/fig1     	    5000	      9000 ns/op	  50 MB/s
BenchmarkWorkerStartCold/fig2    	     100	    500000 ns/op
BenchmarkWorkerStartCold/fig1    	     100	     60000 ns/op
BenchmarkWorkerStartLoad/fig1    	    5000	     10000 ns/op	  50 MB/s
BenchmarkWorkerStartLoad/fig2    	    2000	    100000 ns/op	  80 MB/s
ok  	netdiag/internal/snapshot	1.000s
`

func TestSnapshotSection(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(snapshotOutput)))
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Snapshot
	if len(snap) != 2 {
		t.Fatalf("snapshot section has %d scenarios, want 2: %+v", len(snap), snap)
	}
	// Sorted by scenario name regardless of input order.
	if snap[0].Scenario != "fig1" || snap[1].Scenario != "fig2" {
		t.Fatalf("scenario order = %s, %s", snap[0].Scenario, snap[1].Scenario)
	}
	if snap[0].ColdNsPerOp != 60000 || snap[0].LoadNsPerOp != 10000 || snap[0].LoadSpeedup != 6 {
		t.Fatalf("fig1 = %+v", snap[0])
	}
	if snap[0].EncodeNsPerOp != 4000 || snap[0].DecodeNsPerOp != 9000 {
		t.Fatalf("fig1 codec columns = %+v", snap[0])
	}
	if snap[1].LoadSpeedup != 5 || snap[1].EncodeNsPerOp != 0 {
		t.Fatalf("fig2 = %+v", snap[1])
	}
}

func TestSnapshotSectionAbsent(t *testing.T) {
	in := "BenchmarkWorkerStartCold/fig1 	 10	 90000 ns/op\nok  	netdiag/internal/snapshot	0.020s\n"
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot != nil {
		t.Fatalf("snapshot section = %+v, want absent (no load counterpart)", rep.Snapshot)
	}
}

// TestCompareGatesSnapshotSpeedup pins the fleet cold-start gate: a load
// speedup that collapses versus the committed report fails the compare
// even when every individual benchmark stays inside the ns/op threshold.
func TestCompareGatesSnapshotSpeedup(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", &Report{
		Snapshot: []SnapshotScenario{{Scenario: "fig1", ColdNsPerOp: 60000, LoadNsPerOp: 10000, LoadSpeedup: 6}},
	})
	held := writeReport(t, dir, "held.json", &Report{
		Snapshot: []SnapshotScenario{{Scenario: "fig1", ColdNsPerOp: 58000, LoadNsPerOp: 10000, LoadSpeedup: 5.8}},
	})
	var buf bytes.Buffer
	if regressed, err := runCompare(oldPath, held, 10, &buf); err != nil || regressed {
		t.Fatalf("held speedup counted as regression (err %v):\n%s", err, buf.String())
	}
	collapsed := writeReport(t, dir, "collapsed.json", &Report{
		Snapshot: []SnapshotScenario{{Scenario: "fig1", ColdNsPerOp: 60000, LoadNsPerOp: 30000, LoadSpeedup: 2}},
	})
	buf.Reset()
	regressed, err := runCompare(oldPath, collapsed, 10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("collapsed speedup not flagged:\n%s", buf.String())
	}
}
