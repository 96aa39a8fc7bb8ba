package lint

import (
	"fmt"
	"sort"
)

// Config configures a lint run.
type Config struct {
	// Analyzers to run; defaults to All() when empty.
	Analyzers []*Analyzer
}

// Run loads the packages matching patterns (relative to the module
// containing dir) and applies the analyzers to each loaded unit in turn,
// in one sequential pass: loading dominates the run, so analyzing in
// parallel saved nothing measurable. Diagnostics come back deduplicated
// across the test/non-test variants of each package and sorted by file,
// line, column, analyzer and message, so the output is byte-deterministic.
func Run(dir string, patterns []string, cfg Config) ([]Diagnostic, error) {
	analyzers := cfg.Analyzers
	if len(analyzers) == 0 {
		analyzers = All()
	}
	ld, err := newLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := ld.expandPatterns(patterns)
	if err != nil {
		return nil, err
	}

	units, err := ld.loadUnits(dirs)
	if err != nil {
		return nil, err
	}

	seen := map[Diagnostic]bool{}
	var out []Diagnostic
	for _, u := range units {
		for _, d := range runUnit(ld, u, analyzers) {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out, nil
}

// runUnit applies every analyzer to one unit and filters the findings
// through the unit's //ndlint:ignore suppressions.
func runUnit(ld *loader, u *unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:    ld.fset,
			Files:   u.files,
			Pkg:     u.pkg,
			Info:    u.info,
			PkgPath: u.pkgPath,
			ModPath: ld.modPath,
			diags:   &diags,
			name:    a.Name,
			rel:     ld.relPos,
		}
		a.Run(pass)
	}

	// Suppressions, keyed per file by line.
	supp := map[string]map[int][]suppression{}
	for _, f := range u.files {
		file, _, _ := ld.relPos(f.Pos())
		byLine, malformed := parseSuppressions(ld.fset, f, ld.relPos)
		supp[file] = byLine
		diags = append(diags, malformed...)
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, s := range supp[d.File][d.Line] {
			if s.matches(d.Analyzer) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// ByName resolves analyzer names (e.g. from -enable/-disable flags) to
// analyzers, erroring on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
