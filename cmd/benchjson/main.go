// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report, so CI can diff benchmark runs without
// scraping free text. It reads the benchmark output on stdin and writes a
// JSON document to -o (default stdout):
//
//	go test -run xxx -bench . ./... | go run ./cmd/benchjson -o BENCH_pipeline.json
//
// Each entry carries the package (from the closing "ok <pkg> <time>" or
// "pkg:" lines), the benchmark name with its -N GOMAXPROCS suffix split
// off, iterations, ns/op, and the optional B/op and allocs/op columns.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result line.
type Entry struct {
	Package     string  `json:"package,omitempty"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric columns (e.g. the server
	// benchmarks' "coalesce-hit-ratio") keyed by their unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// ServerSection summarizes the ndserve service benchmarks: what a warm
// snapshot saves over a cold convergence, and how much identical
// concurrent load the request coalescing absorbs.
type ServerSection struct {
	ColdNsPerOp      float64  `json:"cold_ns_per_op"`
	WarmNsPerOp      float64  `json:"warm_ns_per_op"`
	WarmSpeedup      float64  `json:"warm_speedup,omitempty"`
	CoalesceHitRatio *float64 `json:"coalesce_hit_ratio,omitempty"`
}

// IncrementalScenario pairs one reconvergence delta scenario's cold and
// incremental benchmark results: how much the warm-started, dirty-set-
// pruned path saves over a from-scratch reconvergence, and what fraction
// of the prefix set actually re-ran its fixpoint.
type IncrementalScenario struct {
	Scenario      string   `json:"scenario"`
	ColdNsPerOp   float64  `json:"cold_ns_per_op"`
	WarmNsPerOp   float64  `json:"warm_ns_per_op"`
	WarmSpeedup   float64  `json:"warm_speedup,omitempty"`
	DirtyFraction *float64 `json:"dirty_fraction,omitempty"`
}

// SnapshotScenario pairs one scenario's worker-start benchmarks: what
// loading a persisted snapshot saves over the cold SPF+BGP convergence a
// snapshot-less worker pays, plus the raw codec costs.
type SnapshotScenario struct {
	Scenario      string  `json:"scenario"`
	ColdNsPerOp   float64 `json:"cold_ns_per_op"`
	LoadNsPerOp   float64 `json:"load_ns_per_op"`
	LoadSpeedup   float64 `json:"load_speedup,omitempty"`
	EncodeNsPerOp float64 `json:"encode_ns_per_op,omitempty"`
	DecodeNsPerOp float64 `json:"decode_ns_per_op,omitempty"`
}

// StreamSection summarizes the streaming-plane benchmarks: NDJSON
// ingest throughput of both feed endpoints, the cost and latency of a
// full withdrawal -> correlation -> diagnosis cycle, and the fraction
// of mesh pairs a routing event actually re-probed (the delta store's
// pruning win — lower is better).
type StreamSection struct {
	IngestTraceRecordsPerSec float64  `json:"ingest_trace_records_per_sec"`
	IngestBGPRecordsPerSec   float64  `json:"ingest_bgp_records_per_sec"`
	EventLoopNsPerOp         float64  `json:"event_loop_ns_per_op,omitempty"`
	EventLagNs               *float64 `json:"event_lag_ns,omitempty"`
	DirtyPairFraction        *float64 `json:"dirty_pair_fraction,omitempty"`
}

// DiagnoseScenario pairs one sensor-count point of the diagnosis
// scalability series: the bitset engine against the map-based reference,
// end-to-end and on the greedy phase the bitset engine vectorizes. Points
// beyond the map engine's practical range (10k sensors) carry only the
// bitset side — MapNsPerOp and the speedups stay zero/omitted there.
type DiagnoseScenario struct {
	Sensors          string  `json:"sensors"`
	BitsetNsPerOp    float64 `json:"bitset_ns_per_op"`
	MapNsPerOp       float64 `json:"map_ns_per_op,omitempty"`
	Speedup          float64 `json:"speedup,omitempty"`
	GreedySpeedup    float64 `json:"greedy_speedup,omitempty"`
	SensorsPerSec    float64 `json:"sensors_per_sec,omitempty"`
	GreedyNsPerOp    float64 `json:"greedy_ns_per_op,omitempty"`
	MapGreedyNsPerOp float64 `json:"map_greedy_ns_per_op,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Benchmarks  []Entry               `json:"benchmarks"`
	Server      *ServerSection        `json:"server,omitempty"`
	Incremental []IncrementalScenario `json:"incremental,omitempty"`
	Snapshot    []SnapshotScenario    `json:"snapshot,omitempty"`
	Stream      *StreamSection        `json:"stream,omitempty"`
	Diagnose    []DiagnoseScenario    `json:"diagnose,omitempty"`
}

// serverSection derives the server summary from the parsed entries; it is
// nil when the server benchmarks are not part of the run.
func serverSection(entries []Entry) *ServerSection {
	var cold, warm *Entry
	var ratio *float64
	for i := range entries {
		e := &entries[i]
		switch e.Name {
		case "BenchmarkServerDiagnoseCold":
			cold = e
		case "BenchmarkServerDiagnoseWarm":
			warm = e
		case "BenchmarkServerCoalesce":
			if r, ok := e.Extra["coalesce-hit-ratio"]; ok {
				ratio = &r
			}
		}
	}
	if cold == nil || warm == nil {
		return nil
	}
	s := &ServerSection{ColdNsPerOp: cold.NsPerOp, WarmNsPerOp: warm.NsPerOp, CoalesceHitRatio: ratio}
	if warm.NsPerOp > 0 {
		s.WarmSpeedup = cold.NsPerOp / warm.NsPerOp
	}
	return s
}

// bestEntries collapses duplicate benchmark rows (same package, name and
// procs — e.g. a re-run appended at a higher -benchtime, as the bench
// target does for the Reconverge pairs) to the sample with the most
// iterations. First-appearance order is kept.
func bestEntries(entries []Entry) []*Entry {
	at := map[string]int{}
	var out []*Entry
	for i := range entries {
		e := &entries[i]
		k := benchKey(e)
		if j, ok := at[k]; ok {
			if e.Iterations > out[j].Iterations {
				out[j] = e
			}
			continue
		}
		at[k] = len(out)
		out = append(out, e)
	}
	return out
}

// incrementalSection pairs BenchmarkReconvergeCold/<scenario> entries with
// their BenchmarkReconvergeIncremental/<scenario> counterparts. Scenarios
// missing either side are dropped; the result is sorted by scenario name.
func incrementalSection(entries []Entry) []IncrementalScenario {
	cold := map[string]*Entry{}
	warm := map[string]*Entry{}
	for i := range entries {
		e := &entries[i]
		if name, ok := strings.CutPrefix(e.Name, "BenchmarkReconvergeCold/"); ok {
			cold[name] = e
		} else if name, ok := strings.CutPrefix(e.Name, "BenchmarkReconvergeIncremental/"); ok {
			warm[name] = e
		}
	}
	names := make([]string, 0, len(cold))
	for name := range cold {
		if _, ok := warm[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []IncrementalScenario
	for _, name := range names {
		c, w := cold[name], warm[name]
		s := IncrementalScenario{Scenario: name, ColdNsPerOp: c.NsPerOp, WarmNsPerOp: w.NsPerOp}
		if w.NsPerOp > 0 {
			s.WarmSpeedup = c.NsPerOp / w.NsPerOp
		}
		if f, ok := w.Extra["dirty-fraction"]; ok {
			s.DirtyFraction = &f
		}
		out = append(out, s)
	}
	return out
}

// snapshotSection pairs BenchmarkWorkerStartCold/<scenario> entries with
// their BenchmarkWorkerStartLoad/<scenario> counterparts (plus the codec
// benchmarks when present). Scenarios missing either worker-start side
// are dropped; the result is sorted by scenario name.
func snapshotSection(entries []Entry) []SnapshotScenario {
	cold := map[string]*Entry{}
	load := map[string]*Entry{}
	encode := map[string]*Entry{}
	decode := map[string]*Entry{}
	for i := range entries {
		e := &entries[i]
		if name, ok := strings.CutPrefix(e.Name, "BenchmarkWorkerStartCold/"); ok {
			cold[name] = e
		} else if name, ok := strings.CutPrefix(e.Name, "BenchmarkWorkerStartLoad/"); ok {
			load[name] = e
		} else if name, ok := strings.CutPrefix(e.Name, "BenchmarkSnapshotEncode/"); ok {
			encode[name] = e
		} else if name, ok := strings.CutPrefix(e.Name, "BenchmarkSnapshotDecode/"); ok {
			decode[name] = e
		}
	}
	names := make([]string, 0, len(cold))
	for name := range cold {
		if _, ok := load[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []SnapshotScenario
	for _, name := range names {
		c, l := cold[name], load[name]
		s := SnapshotScenario{Scenario: name, ColdNsPerOp: c.NsPerOp, LoadNsPerOp: l.NsPerOp}
		if l.NsPerOp > 0 {
			s.LoadSpeedup = c.NsPerOp / l.NsPerOp
		}
		if e, ok := encode[name]; ok {
			s.EncodeNsPerOp = e.NsPerOp
		}
		if d, ok := decode[name]; ok {
			s.DecodeNsPerOp = d.NsPerOp
		}
		out = append(out, s)
	}
	return out
}

// streamSection derives the streaming-plane summary from the
// BenchmarkIngestTraceroute / BenchmarkIngestBGP / BenchmarkEventLoop
// entries; nil when either ingest benchmark is absent.
func streamSection(entries []Entry) *StreamSection {
	var trace, bgp, loop *Entry
	for i := range entries {
		e := &entries[i]
		switch e.Name {
		case "BenchmarkIngestTraceroute":
			trace = e
		case "BenchmarkIngestBGP":
			bgp = e
		case "BenchmarkEventLoop":
			loop = e
		}
	}
	if trace == nil || bgp == nil {
		return nil
	}
	s := &StreamSection{
		IngestTraceRecordsPerSec: trace.Extra["records/s"],
		IngestBGPRecordsPerSec:   bgp.Extra["records/s"],
	}
	if loop != nil {
		s.EventLoopNsPerOp = loop.NsPerOp
		if lag, ok := loop.Extra["event-lag-ns"]; ok {
			s.EventLagNs = &lag
		}
		if f, ok := loop.Extra["dirty-pair-fraction"]; ok {
			s.DirtyPairFraction = &f
		}
	}
	return s
}

// diagnoseSection pairs BenchmarkDiagnoseBitset/<sensors> entries with
// their BenchmarkDiagnoseMap/<sensors> counterparts into the scalability
// series. Bitset-only points (the map engine stops at 2k sensors) are
// kept — they are the curve's headline — so only the bitset side is
// required. Points are sorted by sensor count.
func diagnoseSection(entries []Entry) []DiagnoseScenario {
	bit := map[string]*Entry{}
	ref := map[string]*Entry{}
	for i := range entries {
		e := &entries[i]
		if name, ok := strings.CutPrefix(e.Name, "BenchmarkDiagnoseBitset/"); ok {
			bit[name] = e
		} else if name, ok := strings.CutPrefix(e.Name, "BenchmarkDiagnoseMap/"); ok {
			ref[name] = e
		}
	}
	names := make([]string, 0, len(bit))
	for name := range bit {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, aerr := strconv.Atoi(names[i])
		b, berr := strconv.Atoi(names[j])
		if aerr == nil && berr == nil {
			return a < b
		}
		return names[i] < names[j]
	})
	var out []DiagnoseScenario
	for _, name := range names {
		be := bit[name]
		s := DiagnoseScenario{
			Sensors:       name,
			BitsetNsPerOp: be.NsPerOp,
			SensorsPerSec: be.Extra["sensors/s"],
			GreedyNsPerOp: be.Extra["greedy-ns/op"],
		}
		if me, ok := ref[name]; ok {
			s.MapNsPerOp = me.NsPerOp
			s.MapGreedyNsPerOp = me.Extra["greedy-ns/op"]
			if be.NsPerOp > 0 {
				s.Speedup = me.NsPerOp / be.NsPerOp
			}
			if s.GreedyNsPerOp > 0 && s.MapGreedyNsPerOp > 0 {
				s.GreedySpeedup = s.MapGreedyNsPerOp / s.GreedyNsPerOp
			}
		}
		out = append(out, s)
	}
	return out
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "compare two reports: benchjson -compare [-threshold pct] old.json new.json")
	threshold := flag.Float64("threshold", 10, "ns/op regression threshold in percent for -compare")
	allocGuard := flag.String("allocguard", "", "assert 0 allocs/op for benchmarks matching this regex in the stdin bench output")
	flag.Parse()

	if *allocGuard != "" {
		rep, err := parse(bufio.NewScanner(os.Stdin))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		violations, err := runAllocGuard(rep, *allocGuard, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if violations > 0 {
			os.Exit(1)
		}
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), *threshold, os.Stdout)
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
	rep := &Report{Benchmarks: []Entry{}}
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	// Benchmark lines precede their package's closing "ok <pkg> <time>"
	// line, so entries are buffered per package and stamped on close.
	var pending []int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg := strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			stamp(rep, &pending, pkg)
		case strings.HasPrefix(line, "ok "):
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				stamp(rep, &pending, fields[1])
			}
		case strings.HasPrefix(line, "Benchmark"):
			e, ok := parseBench(line)
			if ok {
				pending = append(pending, len(rep.Benchmarks))
				rep.Benchmarks = append(rep.Benchmarks, e)
			}
		}
	}
	// Each benchmark appears once in the report: rows the bench target
	// re-ran at a higher -benchtime collapse to their best sample, which
	// is also what every derived section reads.
	best := bestEntries(rep.Benchmarks)
	rep.Benchmarks = make([]Entry, len(best))
	for i, e := range best {
		rep.Benchmarks[i] = *e
	}
	rep.Server = serverSection(rep.Benchmarks)
	rep.Incremental = incrementalSection(rep.Benchmarks)
	rep.Snapshot = snapshotSection(rep.Benchmarks)
	rep.Stream = streamSection(rep.Benchmarks)
	rep.Diagnose = diagnoseSection(rep.Benchmarks)
	return rep, sc.Err()
}

// stamp assigns pkg to every pending entry and clears the buffer.
func stamp(rep *Report, pending *[]int, pkg string) {
	for _, i := range *pending {
		rep.Benchmarks[i].Package = pkg
	}
	*pending = (*pending)[:0]
}

// parseBench parses one "BenchmarkX-N  iters  ns/op [B/op allocs/op]" line.
func parseBench(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[2] != "ns/op" && !hasUnit(fields, "ns/op") {
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

func hasUnit(fields []string, unit string) bool {
	for _, f := range fields {
		if f == unit {
			return true
		}
	}
	return false
}
