package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestByName(t *testing.T) {
	as, err := ByName([]string{"wallclock", "maporder"})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "wallclock" || as[1].Name != "maporder" {
		t.Errorf("ByName returned %v, want [wallclock maporder] in request order", names(as))
	}
}

func TestByNameUnknown(t *testing.T) {
	_, err := ByName([]string{"wallclock", "bogus"})
	if err == nil || !strings.Contains(err.Error(), `unknown analyzer "bogus"`) {
		t.Errorf("ByName(bogus) error = %v, want unknown-analyzer error", err)
	}
}

func names(as []*Analyzer) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

// An unmatched recursive pattern is an empty package list, and an empty
// package list is clean — not an error (CI can lint a directory that
// does not exist yet).
func TestUnmatchedRecursivePatternIsClean(t *testing.T) {
	diags, err := Run(".", []string{"./no/such/dir/..."}, Config{})
	if err != nil {
		t.Fatalf("unmatched ... pattern: %v, want nil error", err)
	}
	if len(diags) != 0 {
		t.Errorf("unmatched ... pattern produced %d findings, want 0", len(diags))
	}
}

// An external test package is checked as `go test` builds it, whatever
// the directory order: d (loaded before p) and q (first imported by
// p_test) hand p_test values of the test-augmented p, and r, loaded
// after, sees the plain p and q again.
func TestExternalTestLoad(t *testing.T) {
	diags, err := Run(".", []string{"./internal/lint/testdata/src/xtestload/..."}, Config{})
	if err != nil || len(diags) != 0 {
		t.Fatalf("Run = %v, %v; want no findings and no error", diags, err)
	}
}

// A non-recursive pattern naming a missing directory is a user error.
func TestMissingDirErrors(t *testing.T) {
	_, err := Run(".", []string{"./no/such/dir"}, Config{})
	if err == nil || !strings.Contains(err.Error(), "no such package directory") {
		t.Errorf("missing dir error = %v, want no-such-package-directory error", err)
	}
}

func parseOne(t *testing.T, src string) (*token.FileSet, map[int][]suppression, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	rel := func(pos token.Pos) (string, int, int) {
		p := fset.Position(pos)
		return p.Filename, p.Line, p.Column
	}
	byLine, malformed := parseSuppressions(fset, f, rel)
	return fset, byLine, malformed
}

func TestSuppressionParsing(t *testing.T) {
	src := `package p

//ndlint:ignore wallclock,maporder reads the clock to label a scratch file
var x = 1

var y = 2 //ndlint:ignore ctxflow detached background job by design
`
	_, byLine, malformed := parseOne(t, src)
	if len(malformed) != 0 {
		t.Fatalf("malformed = %v, want none", malformed)
	}
	// The comment-only line covers itself and the next line.
	for _, line := range []int{3, 4} {
		ss := byLine[line]
		if len(ss) != 1 || !ss[0].matches("wallclock") || !ss[0].matches("maporder") {
			t.Errorf("line %d suppressions = %+v, want one covering wallclock and maporder", line, ss)
		}
		if len(ss) == 1 && ss[0].matches("ctxflow") {
			t.Errorf("line %d suppression unexpectedly covers ctxflow", line)
		}
	}
	if ss := byLine[6]; len(ss) != 1 || !ss[0].matches("ctxflow") {
		t.Errorf("line 6 suppressions = %+v, want one covering ctxflow", ss)
	}
}

// A suppression without a reason must not suppress anything — it is
// itself reported, under the "ndlint" pseudo-analyzer.
func TestSuppressionRequiresReason(t *testing.T) {
	src := `package p

//ndlint:ignore wallclock
var x = 1
`
	_, byLine, malformed := parseOne(t, src)
	if len(byLine) != 0 {
		t.Errorf("reason-less suppression still registered: %+v", byLine)
	}
	if len(malformed) != 1 {
		t.Fatalf("malformed = %v, want exactly one finding", malformed)
	}
	d := malformed[0]
	if d.Analyzer != "ndlint" || d.Line != 3 || !strings.Contains(d.Message, "requires a reason") {
		t.Errorf("malformed finding = %s, want ndlint requires-a-reason at line 3", d)
	}
}
