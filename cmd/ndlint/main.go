// Command ndlint runs the project's static-analysis pass: the analyzers
// of internal/lint, which enforce the repo's determinism, context-flow,
// telemetry nil-safety, seeded-randomness, lock-discipline, span-balance,
// error-envelope, goroutine-lifetime and hotpath-allocation invariants at
// the source level on every build.
//
// Usage:
//
//	ndlint [-enable a,b] [-disable a,b] [-json] [packages]
//
// Packages default to ./... relative to the enclosing module. Every run
// analyzes every matched package from source, in one sequential pass.
// Findings print as file:line:col: message [analyzer], sorted and
// deduplicated, byte-identically from run to run.
//
// Exit status: 0 when clean (including an empty package list), 1 when
// findings exist, 2 on usage or load errors. Suppress a finding in place
// with //ndlint:ignore <analyzer> <reason> on or above the flagged line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"netdiag/internal/lint"
)

func main() {
	var (
		enable  = flag.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable = flag.String("disable", "", "comma-separated analyzers to skip")
		jsonOut = flag.Bool("json", false, "emit machine-readable findings")
		list    = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(cwd, flag.Args(), lint.Config{Analyzers: analyzers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndlint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		if err := writeJSON(os.Stdout, analyzers, diags); err != nil {
			fmt.Fprintln(os.Stderr, "ndlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers applies -enable/-disable, validating every name.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		parts := strings.Split(s, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	if enable != "" && disable != "" {
		return nil, fmt.Errorf("-enable and -disable are mutually exclusive")
	}
	if names := split(enable); names != nil {
		return lint.ByName(names)
	}
	if names := split(disable); names != nil {
		skip, err := lint.ByName(names)
		if err != nil {
			return nil, err
		}
		skipped := map[string]bool{}
		for _, a := range skip {
			skipped[a.Name] = true
		}
		var out []*lint.Analyzer
		for _, a := range lint.All() {
			if !skipped[a.Name] {
				out = append(out, a)
			}
		}
		return out, nil
	}
	return lint.All(), nil
}

// report is the -json document: same machine-readable style as
// BENCH_pipeline.json, so CI can diff lint results across PRs.
type report struct {
	Tool      string            `json:"tool"`
	Analyzers []string          `json:"analyzers"`
	Findings  []lint.Diagnostic `json:"findings"`
	Count     int               `json:"count"`
}

func writeJSON(w io.Writer, analyzers []*lint.Analyzer, diags []lint.Diagnostic) error {
	r := report{Tool: "ndlint", Findings: diags, Count: len(diags)}
	if diags == nil {
		r.Findings = []lint.Diagnostic{}
	}
	for _, a := range analyzers {
		r.Analyzers = append(r.Analyzers, a.Name)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
