package main

import (
	"fmt"
	"io"
	"regexp"
)

// Alloc-guard mode: `benchjson -allocguard <regex>` reads `go test
// -bench` output on stdin (like the default mode) and asserts that every
// benchmark whose name matches the pattern reported exactly 0 allocs/op.
// It is how `make verify` pins the zero-allocation contract of the
// uninstrumented telemetry path: the guarded benchmarks run the disabled
// (nil-handle) hot loop with b.ReportAllocs(), and any allocation that
// creeps into that path fails the build instead of a human eyeballing
// benchmark text.
//
// The guard is strict in both directions: a matching benchmark without
// an allocs/op column (missing b.ReportAllocs) fails, and a pattern
// matching no benchmark at all fails — a guard that silently guards
// nothing is worse than none.

// runAllocGuard evaluates the guard over parsed report entries and
// writes its verdict to w. It returns the number of violations, with err
// reserved for a bad pattern.
func runAllocGuard(rep *Report, pattern string, w io.Writer) (violations int, err error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return 0, fmt.Errorf("bad -allocguard pattern: %w", err)
	}
	matched := 0
	for _, e := range rep.Benchmarks {
		if !re.MatchString(e.Name) {
			continue
		}
		matched++
		switch {
		case e.AllocsPerOp == nil:
			violations++
			fmt.Fprintf(w, "allocguard: %s reports no allocs/op (add b.ReportAllocs to the benchmark)\n", e.Name)
		case *e.AllocsPerOp != 0:
			violations++
			fmt.Fprintf(w, "allocguard: %s allocates %d allocs/op, want 0\n", e.Name, *e.AllocsPerOp)
		default:
			fmt.Fprintf(w, "allocguard: %s ok (0 allocs/op over %d iterations)\n", e.Name, e.Iterations)
		}
	}
	if matched == 0 {
		violations++
		fmt.Fprintf(w, "allocguard: no benchmark matched %q — the guard is guarding nothing\n", pattern)
	}
	return violations, nil
}
