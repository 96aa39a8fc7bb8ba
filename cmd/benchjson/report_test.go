package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedReport guards the committed BENCH_pipeline.json: it must
// decode as the current Report with no unknown field, every row must
// hold a -count sample spread, and the derived values the docs cite must
// be there. A schema change without regeneration fails here.
func TestCommittedReport(t *testing.T) {
	rep, err := loadReport("../../BENCH_pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		t.Fatal("committed report has no rows")
	}
	for _, e := range rep.Benchmarks {
		if e.Samples < 3 || e.MinNsPerOp > e.NsPerOp || e.NsPerOp > e.MaxNsPerOp {
			t.Errorf("%s: %d samples, min %v, median %v, max %v; want at least 3 with min <= median <= max",
				e.Name, e.Samples, e.MinNsPerOp, e.NsPerOp, e.MaxNsPerOp)
		}
	}
	got := derivedByName(rep)
	for _, name := range []string{
		"server-warm-speedup",
		"incremental-warm-speedup/fig1-link",
		"incremental-warm-speedup/fig2-link",
		"incremental-warm-speedup/fig2-2link",
		"incremental-warm-speedup/fig2-filter",
		"incremental-warm-speedup/research-link",
		"snapshot-load-speedup/fig1",
		"snapshot-load-speedup/fig2",
		"stream-dirty-pair-fraction",
		"diagnose-speedup/600",
		"diagnose-greedy-speedup/600",
	} {
		d, ok := got[name]
		if !ok {
			t.Errorf("derived value %s missing", name)
			continue
		}
		if d.Min > d.Median || d.Median > d.Max || d.Median <= 0 {
			t.Errorf("%s: min %v, median %v, max %v", name, d.Min, d.Median, d.Max)
		}
	}
}

// TestLoadReportRejectsOldFormat: -compare reads only the current
// format, so a report with the old per-section fields is an error.
func TestLoadReportRejectsOldFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks":[],"incremental":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(path); err == nil {
		t.Fatal("old-format report accepted")
	}
}
