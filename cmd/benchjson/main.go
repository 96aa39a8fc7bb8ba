// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report, so CI can diff benchmark runs without
// scraping free text. It reads the benchmark output on stdin and writes a
// JSON document to -o (default stdout):
//
//	go test -run '^$' -bench . -benchtime 100ms -count 3 ./... | go run ./cmd/benchjson -o BENCH_pipeline.json
//
// Each row is one benchmark: the package (from the "pkg:" or closing
// "ok <pkg> <time>" lines), the name with its -N GOMAXPROCS suffix split
// off, and its -count samples folded into medians with the ns/op spread.
// The derived list holds the values of the derivations table, mostly
// ratios of two rows.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Entry is one benchmark's row: the -count samples of one (package,
// name, procs) folded together. NsPerOp, the custom columns and B/op and
// allocs/op are medians over the samples; the ns/op spread is kept as
// its min and max, and Iterations sums the samples' iterations.
type Entry struct {
	Package     string  `json:"package,omitempty"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Samples     int     `json:"samples"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MinNsPerOp  float64 `json:"min_ns_per_op"`
	MaxNsPerOp  float64 `json:"max_ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric columns (e.g. the server
	// benchmarks' "coalesce-hit-ratio") keyed by their unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Derived is one computed row of the derivations table. For a ratio,
// Median divides the two rows' medians, and Min and Max are the extremes
// their spreads allow (numerator min over denominator max, and the
// reverse). A column that keeps only its median (every custom column)
// has Min = Max = Median.
type Derived struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Report is the emitted document.
type Report struct {
	Benchmarks []Entry   `json:"benchmarks"`
	Derived    []Derived `json:"derived,omitempty"`
}

// derivation is one derived value: column of benchmark num, divided by
// the same column of benchmark den when den is set. better says which
// direction is an improvement, for the -compare gate. A derivation whose
// rows are missing from the run is left out of the report.
type derivation struct {
	name, num, den, column, better string
}

// derivations is the one table of derived values. Values that would only
// copy one row's column (coalesce-hit-ratio, dirty-fraction, records/s,
// event-lag-ns) stay in that row.
var derivations = []derivation{
	// What a warm snapshot saves a request over a cold convergence.
	{"server-warm-speedup", "BenchmarkServerDiagnoseCold", "BenchmarkServerDiagnoseWarm", "ns/op", "higher"},
	// What the warm-started, dirty-set-pruned reconvergence saves.
	{"incremental-warm-speedup/fig1-link", "BenchmarkReconvergeCold/fig1-link", "BenchmarkReconvergeIncremental/fig1-link", "ns/op", "higher"},
	{"incremental-warm-speedup/fig2-link", "BenchmarkReconvergeCold/fig2-link", "BenchmarkReconvergeIncremental/fig2-link", "ns/op", "higher"},
	{"incremental-warm-speedup/fig2-2link", "BenchmarkReconvergeCold/fig2-2link", "BenchmarkReconvergeIncremental/fig2-2link", "ns/op", "higher"},
	{"incremental-warm-speedup/fig2-filter", "BenchmarkReconvergeCold/fig2-filter", "BenchmarkReconvergeIncremental/fig2-filter", "ns/op", "higher"},
	{"incremental-warm-speedup/research-link", "BenchmarkReconvergeCold/research-link", "BenchmarkReconvergeIncremental/research-link", "ns/op", "higher"},
	// The default engine against the map-based reference at the paper's
	// largest sensor count, end to end and on the greedy phase.
	{"diagnose-speedup/600", "BenchmarkDiagnoseMap/600", "BenchmarkDiagnoseBitset/600", "ns/op", "higher"},
	{"diagnose-greedy-speedup/600", "BenchmarkDiagnoseMap/600", "BenchmarkDiagnoseBitset/600", "greedy-ns/op", "higher"},
}

// derive evaluates the derivations table over the report's rows.
func derive(rows []Entry) []Derived {
	byName := make(map[string]*Entry, len(rows))
	for i := range rows {
		byName[rows[i].Name] = &rows[i]
	}
	var out []Derived
	for _, d := range derivations {
		med, lo, hi, ok := spread(byName[d.num], d.column)
		if !ok {
			continue
		}
		if d.den != "" {
			dmed, dlo, dhi, ok := spread(byName[d.den], d.column)
			if !ok || dlo <= 0 {
				continue
			}
			med, lo, hi = med/dmed, lo/dhi, hi/dlo
		}
		out = append(out, Derived{Name: d.name, Better: d.better, Median: med, Min: lo, Max: hi})
	}
	return out
}

// spread returns the median, min and max of one column of e: its ns/op,
// or a custom column's median for all three.
func spread(e *Entry, column string) (med, lo, hi float64, ok bool) {
	if e == nil {
		return 0, 0, 0, false
	}
	if column == "ns/op" {
		return e.NsPerOp, e.MinNsPerOp, e.MaxNsPerOp, true
	}
	v, ok := e.Extra[column]
	return v, v, v, ok
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "compare two reports: benchjson -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Printf("benchjson: wrote %d benchmark(s) to %s\n", len(rep.Benchmarks), *out)
	}
}

func parse(sc *bufio.Scanner) (*Report, error) {
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	// Benchmark lines precede their package's closing "ok <pkg> <time>"
	// line, so samples are buffered per package and stamped on close.
	var samples []Entry
	pending := 0
	stamp := func(pkg string) {
		for i := pending; i < len(samples); i++ {
			samples[i].Package = pkg
		}
		pending = len(samples)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			stamp(strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
		case strings.HasPrefix(line, "ok "):
			if fields := strings.Fields(line); len(fields) >= 2 {
				stamp(fields[1])
			}
		case strings.HasPrefix(line, "Benchmark"):
			if e, ok := parseBench(line); ok {
				samples = append(samples, e)
			}
		}
	}
	// Fold each benchmark's -count samples into one row, in
	// first-appearance order.
	groups := map[string][]Entry{}
	var order []string
	for _, s := range samples {
		k := benchKey(&s)
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	rep := &Report{Benchmarks: []Entry{}}
	for _, k := range order {
		rep.Benchmarks = append(rep.Benchmarks, fold(groups[k]))
	}
	rep.Derived = derive(rep.Benchmarks)
	return rep, sc.Err()
}

// fold merges one benchmark's samples into its row.
func fold(samples []Entry) Entry {
	e := Entry{Package: samples[0].Package, Name: samples[0].Name, Procs: samples[0].Procs, Samples: len(samples)}
	var ns, bytesPerOp, allocsPerOp []float64
	extra := map[string][]float64{}
	for _, s := range samples {
		e.Iterations += s.Iterations
		ns = append(ns, s.NsPerOp)
		if s.BytesPerOp != nil {
			bytesPerOp = append(bytesPerOp, float64(*s.BytesPerOp))
		}
		if s.AllocsPerOp != nil {
			allocsPerOp = append(allocsPerOp, float64(*s.AllocsPerOp))
		}
		for unit, v := range s.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	e.NsPerOp, e.MinNsPerOp, e.MaxNsPerOp = median(ns), slices.Min(ns), slices.Max(ns)
	e.BytesPerOp, e.AllocsPerOp = medianInt(bytesPerOp), medianInt(allocsPerOp)
	if len(extra) > 0 {
		e.Extra = make(map[string]float64, len(extra))
	}
	for unit, vs := range extra {
		e.Extra[unit] = median(vs)
	}
	return e
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count. It sorts xs in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianInt is median for an integer column, nil when no sample has it.
func medianInt(xs []float64) *int64 {
	if len(xs) == 0 {
		return nil
	}
	m := int64(math.Round(median(xs)))
	return &m
}

// parseBench parses one "BenchmarkX-N  iters  ns/op [B/op allocs/op]" line.
func parseBench(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !slices.Contains(fields, "ns/op") {
		return Entry{}, false
	}
	var e Entry
	e.Name = fields[0]
	if i := strings.LastIndex(e.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(e.Name[i+1:]); err == nil {
			e.Name, e.Procs = e.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e.Iterations = iters
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			ns, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Entry{}, false
			}
			e.NsPerOp = ns
			seen = true
		case "B/op":
			if b, err := strconv.ParseInt(val, 10, 64); err == nil {
				e.BytesPerOp = &b
			}
		case "allocs/op":
			if a, err := strconv.ParseInt(val, 10, 64); err == nil {
				e.AllocsPerOp = &a
			}
		default:
			// Custom b.ReportMetric columns, keyed by unit.
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				if e.Extra == nil {
					e.Extra = map[string]float64{}
				}
				e.Extra[unit] = v
			}
		}
	}
	return e, seen
}
