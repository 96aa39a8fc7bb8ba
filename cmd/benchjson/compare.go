// Benchmark-report comparison: `benchjson -compare old.json new.json`
// matches the two reports' rows by package+name+procs and their derived
// values by name, prints a delta table, and fails (exit 1 from main) when
// any shared value left its noise band. Added and removed values are
// reported but never fail the comparison.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// loadReport reads one benchjson JSON document from disk. It reads only
// the current format: an unknown field is an error.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// benchKey identifies a benchmark across reports. Procs is part of the
// identity: the same benchmark at different GOMAXPROCS is a different
// measurement.
func benchKey(e *Entry) string {
	return fmt.Sprintf("%s\x00%s\x00%d", e.Package, e.Name, e.Procs)
}

// gated is one value the comparison gates, keyed for matching across
// reports: a row's ns/op, where lower is better, or a derived value.
type gated struct {
	key string
	Derived
}

// gatedValues lists a report's rows, then its derived values.
func gatedValues(rep *Report) []gated {
	var out []gated
	for i := range rep.Benchmarks {
		e := &rep.Benchmarks[i]
		out = append(out, gated{benchKey(e), Derived{e.Name, "lower", e.NsPerOp, e.MinNsPerOp, e.MaxNsPerOp}})
	}
	for _, d := range rep.Derived {
		out = append(out, gated{"derived\x00" + d.Name, d})
	}
	return out
}

// outsideBand reports whether cur's median left old's noise band: more
// than twice as bad as old's worst sample, or more than 4x worse than
// old's median (a backstop for a value whose own samples spread wide).
func outsideBand(old, cur Derived) bool {
	if old.Better == "higher" {
		return cur.Median < old.Min/2 || cur.Median < old.Median/4
	}
	return cur.Median > 2*old.Max || cur.Median > 4*old.Median
}

// cell formats one table value: whole numbers from 1000 up, three
// decimals below (ratios, fractions and nanosecond-scale ns/op).
func cell(v float64) string {
	if math.Abs(v) >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// runCompare diffs newPath against oldPath and writes the delta table to
// w. It reports whether any shared value regressed. Rows follow the new
// report's order, so the output is as deterministic as the reports.
func runCompare(oldPath, newPath string, w io.Writer) (regressed bool, err error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return false, err
	}
	oldVals := gatedValues(oldRep)
	oldByKey := make(map[string]gated, len(oldVals))
	for _, v := range oldVals {
		oldByKey[v.key] = v
	}

	fmt.Fprintf(w, "%-55s %14s %14s %14s %9s\n", "benchmark or derived value", "old median", "old worst", "new median", "delta")
	matched := make(map[string]bool, len(oldVals))
	var regressions int
	for _, nv := range gatedValues(newRep) {
		ov, ok := oldByKey[nv.key]
		if !ok {
			fmt.Fprintf(w, "%-55s %14s %14s %14s %9s\n", nv.Name, "-", "-", cell(nv.Median), "added")
			continue
		}
		matched[nv.key] = true
		worst := ov.Max
		if ov.Better == "higher" {
			worst = ov.Min
		}
		delta := 0.0
		if ov.Median != 0 {
			delta = (nv.Median - ov.Median) / ov.Median * 100
		}
		mark := ""
		if outsideBand(ov.Derived, nv.Derived) {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-55s %14s %14s %14s %+8.1f%%%s\n", nv.Name, cell(ov.Median), cell(worst), cell(nv.Median), delta, mark)
	}
	for _, ov := range oldVals {
		if !matched[ov.key] {
			fmt.Fprintf(w, "%-55s %14s %14s %14s %9s\n", ov.Name, cell(ov.Median), "-", "-", "removed")
		}
	}

	if regressions > 0 {
		fmt.Fprintf(w, "\n%d value(s) regressed: median more than 2x worse than the old worst sample or 4x worse than the old median\n", regressions)
		return true, nil
	}
	fmt.Fprintln(w, "\nno regressions: every median within 2x of the old worst sample and 4x of the old median")
	return false, nil
}
