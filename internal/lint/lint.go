// Package lint is the project's static-analysis framework: a small,
// stdlib-only analyzer harness (go/parser + go/types with a source
// importer — no x/tools dependency) plus the analyzers that encode the
// repo's invariants at the source level:
//
//   - maporder  — map iteration must not feed ordered output unsorted
//     (the byte-determinism contract of the figure/CSV pipeline)
//   - wallclock — wall-clock reads live only in internal/telemetry and
//     the cmd/ mains (replay determinism of the simulate→probe→diagnose
//     path)
//   - ctxflow   — a function that receives a context.Context uses it,
//     instead of minting context.Background()/TODO() or passing nil
//     (the Diagnose session API contract)
//   - nilhandle — exported pointer methods on nil-documented telemetry
//     handle types begin with a nil-receiver guard (the zero-alloc
//     no-op hot path)
//   - globalrand — library code derives randomness from scenario seeds,
//     never from math/rand's global source
//   - tracecarry — server functions that enqueue work via the admission
//     queue carry the request trace across the goroutine hop (the
//     fleet-wide request tracing contract)
//
// plus the flow-sensitive analyzers, which lower each function body to a
// control-flow graph (cfg.go) and solve worklist dataflow problems over
// it (dataflow.go), so early returns, loops, labeled branches and panic
// edges are real paths:
//
//   - locksafe — every mutex acquire is released on all paths out of
//     the function; no queue submit, HTTP round trip, blocking channel
//     op or indirect call while a lock is held; no re-acquire of a held
//     lock; per-package lock-order cycle detection (AB/BA)
//   - spanbalance — every telemetry span started is ended on all paths;
//     discarding or overwriting a live end func is reported at the site
//   - envelope — in internal/server, error responses flow through the
//     writeError seam (no http.Error, bare error WriteHeader, or
//     hand-rolled error JSON), and no path writes two HTTP statuses
//   - goleak — bare `go` statements in library code carry a visible
//     termination edge: a context, a channel operation, or a WaitGroup
//   - hotalloc — functions marked //ndlint:hotpath stay free of
//     alloc-inducing constructs (fmt, string concat, map literals,
//     unpreallocated append-in-loop)
//
// Diagnostics are deterministic: sorted by file, line, column, analyzer
// and message, deduplicated across the test/non-test variants of a
// package, and byte-identical from run to run. Every run analyzes every
// matched package from source, in one sequential pass. Findings are suppressed in place
// with
//
//	//ndlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the flagged line or the line directly above it; the reason is
// mandatory — a suppression without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Diagnostic is one finding. File is slash-separated and relative to the
// module root, so output is stable across checkouts.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// less orders diagnostics by file, line, column, analyzer, message.
func (d Diagnostic) less(o Diagnostic) bool {
	if d.File != o.File {
		return d.File < o.File
	}
	if d.Line != o.Line {
		return d.Line < o.Line
	}
	if d.Col != o.Col {
		return d.Col < o.Col
	}
	if d.Analyzer != o.Analyzer {
		return d.Analyzer < o.Analyzer
	}
	return d.Message < o.Message
}

// Analyzer is one named invariant check. Run inspects the pass's files
// and reports findings through the pass.
type Analyzer struct {
	// Name identifies the analyzer in output, -enable/-disable and
	// suppression comments.
	Name string
	// Doc is the one-line description shown by ndlint -list.
	Doc string
	// Run performs the check on one type-checked unit.
	Run func(*Pass)
}

// Pass is one (analyzer, package unit) execution: the parsed files and
// type information of a single type-checked unit.
type Pass struct {
	// Fset positions the unit's files.
	Fset *token.FileSet
	// Files are the parsed files of the unit.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the unit's type-checking facts.
	Info *types.Info
	// PkgPath is the unit's import path (test variants share the path of
	// the package they augment, so path-scoped analyzers treat them
	// alike).
	PkgPath string
	// ModPath is the module path ("netdiag"), for path-scoped rules.
	ModPath string

	diags *[]Diagnostic
	name  string
	rel   func(token.Pos) (string, int, int)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	file, line, col := p.rel(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.name,
		File:     file,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// suppression is one parsed //ndlint:ignore comment.
type suppression struct {
	analyzers []string
	reason    string
	line      int
}

var ignoreRe = regexp.MustCompile(`^//\s*ndlint:ignore\s+(\S+)(?:\s+(.*))?$`)

// parseSuppressions extracts the //ndlint:ignore comments of a file,
// keyed by the line they suppress. A comment suppresses its own line and,
// when it is the only thing on its line, the line below. Malformed
// suppressions (no reason) are reported as findings under the "ndlint"
// pseudo-analyzer so they cannot silently disable a check.
func parseSuppressions(fset *token.FileSet, f *ast.File, rel func(token.Pos) (string, int, int)) (map[int][]suppression, []Diagnostic) {
	byLine := map[int][]suppression{}
	var malformed []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			reason := strings.TrimSpace(m[2])
			if reason == "" {
				file, line, col := rel(c.Pos())
				malformed = append(malformed, Diagnostic{
					Analyzer: "ndlint",
					File:     file,
					Line:     line,
					Col:      col,
					Message:  "ndlint:ignore requires a reason: //ndlint:ignore <analyzer> <reason>",
				})
				continue
			}
			s := suppression{analyzers: strings.Split(m[1], ","), reason: reason, line: pos.Line}
			byLine[pos.Line] = append(byLine[pos.Line], s)
			// A comment on its own line suppresses the next line too.
			byLine[pos.Line+1] = append(byLine[pos.Line+1], s)
		}
	}
	return byLine, malformed
}

// matches reports whether the suppression covers the analyzer.
func (s suppression) matches(analyzer string) bool {
	for _, a := range s.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}
