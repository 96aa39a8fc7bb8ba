// Benchmark-report comparison: `benchjson -compare old.json new.json`
// matches the two reports' benchmarks by package+name, prints a per-
// benchmark delta table, and fails (exit 1 from main) when any shared
// benchmark's ns/op regressed by more than -threshold percent. Added and
// removed benchmarks are reported but never fail the comparison.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadReport reads one benchjson JSON document from disk.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
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

// runCompare diffs newPath against oldPath and writes the delta table to
// w. It reports whether any shared benchmark regressed beyond
// thresholdPct. Rows follow the new report's order, so the output is as
// deterministic as the reports themselves.
func runCompare(oldPath, newPath string, thresholdPct float64, w io.Writer) (regressed bool, err error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return false, err
	}

	// Older reports may carry several rows for one benchmark (the bench
	// target re-runs some at a higher -benchtime); compare the
	// highest-iteration sample from each side.
	oldBest := bestEntries(oldRep.Benchmarks)
	newBest := bestEntries(newRep.Benchmarks)
	oldByKey := make(map[string]*Entry, len(oldBest))
	for _, oe := range oldBest {
		oldByKey[benchKey(oe)] = oe
	}

	fmt.Fprintf(w, "%-55s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	matched := make(map[string]bool, len(newBest))
	var regressions int
	for _, ne := range newBest {
		oe, ok := oldByKey[benchKey(ne)]
		if !ok {
			fmt.Fprintf(w, "%-55s %14s %14.1f %9s\n", ne.Name, "-", ne.NsPerOp, "added")
			continue
		}
		matched[benchKey(ne)] = true
		delta := 0.0
		if oe.NsPerOp > 0 {
			delta = (ne.NsPerOp - oe.NsPerOp) / oe.NsPerOp * 100
		}
		mark := ""
		if delta > thresholdPct {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-55s %14.1f %14.1f %+8.1f%%%s\n", ne.Name, oe.NsPerOp, ne.NsPerOp, delta, mark)
	}
	for _, oe := range oldBest {
		if !matched[benchKey(oe)] {
			fmt.Fprintf(w, "%-55s %14.1f %14s %9s\n", oe.Name, oe.NsPerOp, "-", "removed")
		}
	}

	// The snapshot section gates the fleet's cold-start win as a ratio: a
	// scenario whose load speedup collapses versus the committed report
	// fails the comparison even when no single benchmark tripped the ns/op
	// threshold (cold getting faster shrinks the ratio too, but then the
	// snapshot path must keep up to stay worth its complexity).
	oldSnap := make(map[string]SnapshotScenario, len(oldRep.Snapshot))
	for _, s := range oldRep.Snapshot {
		oldSnap[s.Scenario] = s
	}
	for _, ns := range newRep.Snapshot {
		prev, ok := oldSnap[ns.Scenario]
		if !ok {
			fmt.Fprintf(w, "%-55s %13sx %13.1fx %9s\n",
				"snapshot-load-speedup/"+ns.Scenario, "-", ns.LoadSpeedup, "added")
			continue
		}
		if prev.LoadSpeedup <= 0 || ns.LoadSpeedup <= 0 {
			continue
		}
		drop := (prev.LoadSpeedup - ns.LoadSpeedup) / prev.LoadSpeedup * 100
		mark := ""
		if drop > thresholdPct {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-55s %13.1fx %13.1fx %+8.1f%%%s\n",
			"snapshot-load-speedup/"+ns.Scenario, prev.LoadSpeedup, ns.LoadSpeedup, -drop, mark)
	}

	// The stream section gates the delta store's pruning win: the
	// dirty-pair fraction rising beyond the threshold (relative to the
	// committed report) fails the comparison — a routing event starting
	// to re-probe most of the mesh defeats the point of the overlay,
	// even when every individual benchmark's ns/op still passes.
	if oldRep.Stream != nil && newRep.Stream != nil &&
		oldRep.Stream.DirtyPairFraction != nil && newRep.Stream.DirtyPairFraction != nil {
		prev, cur := *oldRep.Stream.DirtyPairFraction, *newRep.Stream.DirtyPairFraction
		if prev > 0 {
			rise := (cur - prev) / prev * 100
			mark := ""
			if rise > thresholdPct {
				mark = "  REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-55s %14.4f %14.4f %+8.1f%%%s\n",
				"stream-dirty-pair-fraction", prev, cur, rise, mark)
		}
	}

	// The diagnose section gates the bitset engine's win over the map
	// reference as a ratio, per sensor count: a point whose end-to-end
	// speedup collapses versus the committed report fails the comparison
	// even when no single benchmark tripped the ns/op threshold. Bitset-
	// only points (no map side, Speedup zero) are skipped — they are gated
	// by their own ns/op rows above.
	oldDiag := make(map[string]DiagnoseScenario, len(oldRep.Diagnose))
	for _, d := range oldRep.Diagnose {
		oldDiag[d.Sensors] = d
	}
	for _, nd := range newRep.Diagnose {
		prev, ok := oldDiag[nd.Sensors]
		if !ok {
			if nd.Speedup > 0 {
				fmt.Fprintf(w, "%-55s %13sx %13.1fx %9s\n",
					"diagnose-speedup/"+nd.Sensors, "-", nd.Speedup, "added")
			}
			continue
		}
		if prev.Speedup <= 0 || nd.Speedup <= 0 {
			continue
		}
		drop := (prev.Speedup - nd.Speedup) / prev.Speedup * 100
		mark := ""
		if drop > thresholdPct {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-55s %13.1fx %13.1fx %+8.1f%%%s\n",
			"diagnose-speedup/"+nd.Sensors, prev.Speedup, nd.Speedup, -drop, mark)
	}

	if regressions > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed beyond %.1f%%\n", regressions, thresholdPct)
		return true, nil
	}
	fmt.Fprintf(w, "\nno regressions beyond %.1f%%\n", thresholdPct)
	return false, nil
}
