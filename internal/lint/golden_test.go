package lint

import (
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Golden tests: each analyzer has a fixture package under
// testdata/src/<name> mixing deliberate violations with the legal
// patterns it must not flag. Expected findings are annotated in place:
//
//	offendingCode() // want <analyzer> "<message substring>"
//
// The assertion is exact and line-by-line in both directions: every
// finding must consume a distinct annotation on its line, and every
// annotation must be consumed. Duplicate findings (e.g. from a failure
// to dedupe the test-augmented package variant) therefore fail too.

var wantRe = regexp.MustCompile(`// want (\S+) ("(?:[^"\\]|\\.)*")`)

type want struct {
	line     int
	analyzer string
	substr   string
	matched  bool
}

// parseWants scans the fixture directory's Go files for want comments,
// keyed by base filename.
func parseWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	wants := map[string][]*want{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			substr, err := strconv.Unquote(m[2])
			if err != nil {
				t.Fatalf("%s:%d: bad want string %s: %v", e.Name(), i+1, m[2], err)
			}
			wants[e.Name()] = append(wants[e.Name()], &want{
				line:     i + 1,
				analyzer: m[1],
				substr:   substr,
			})
		}
	}
	return wants
}

func TestGolden(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer *Analyzer
	}{
		{"ctxflow", CtxFlow},
		{"envelope", Envelope},
		{"globalrand", GlobalRand},
		{"goleak", GoLeak},
		{"hotalloc", HotAlloc},
		{"locksafe", LockSafe},
		{"maporder", MapOrder},
		{"nilhandle", NilHandle},
		{"spanbalance", SpanBalance},
		{"streamenvelope", Envelope},
		{"streamingest", TraceCarry},
		{"tracecarry", TraceCarry},
		{"wallclock", WallClock},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.fixture)
			wants := parseWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want annotations", tc.fixture)
			}
			diags, err := Run(".", []string{"./internal/lint/testdata/src/" + tc.fixture},
				Config{Analyzers: []*Analyzer{tc.analyzer}})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				if !consume(wants[path.Base(d.File)], d) {
					t.Errorf("unexpected finding: %s", d)
				}
			}
			for file, ws := range wants {
				for _, w := range ws {
					if !w.matched {
						t.Errorf("%s:%d: expected %s finding matching %q, got none",
							file, w.line, w.analyzer, w.substr)
					}
				}
			}
		})
	}
}

// consume marks the first unmatched annotation the diagnostic satisfies.
func consume(ws []*want, d Diagnostic) bool {
	for _, w := range ws {
		if !w.matched && w.line == d.Line && w.analyzer == d.Analyzer &&
			strings.Contains(d.Message, w.substr) {
			w.matched = true
			return true
		}
	}
	return false
}

// TestRepoSelfClean is the linter eating its own dog food: one ndlint
// pass over the whole repository reports nothing.
func TestRepoSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo type-check in -short mode")
	}
	diags, err := Run(".", []string{"./..."}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("repository is not lint-clean:\n%s", render(diags))
	}
}

func render(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
