package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// The metrics each pass reports, in BENCHMARK.json order (a test keeps the
// two in step). Every workload reports every end-to-end metric; a per-layer
// metric of a layer the workload never calls reads 0.
var (
	e2eMetrics = []metricDef{
		{"setup_s", "s"},
		{"latency_p50_ms", "ms"},
		{"rss_peak_mb", "MiB"},
	}
	layerMetrics = []metricDef{
		{"server.residual_ms", "ms"},
		{"netsim.fork_ms", "ms"},
		{"netsim.reconverge_ms", "ms"},
		{"netsim.reconverge_p95_ms", "ms"},
		{"probe.mesh_ms", "ms"},
		{"probe.mesh_p95_ms", "ms"},
		{"probe.pairs_traced", "count"},
		{"probe.pairs_changed_ratio", "ratio"},
		{"experiment.adapt_ms", "ms"},
		{"experiment.generate_ms", "ms"},
		{"core.validate_ms", "ms"},
		{"core.expand_ms", "ms"},
		{"core.diagnose_ms", "ms"},
		{"core.diagnose_p95_ms", "ms"},
		{"core.encode_ms", "ms"},
		{"core.expanded_nodes", "count"},
		{"core.expanded_links", "count"},
		{"core.failure_sets", "count"},
		{"core.reroute_sets", "count"},
		{"core.iterations", "count"},
		{"core.hypothesis_links", "count"},
		{"pipeline.total_ms", "ms"},
		{"stream.ingest_trace_ms", "ms"},
		{"stream.ingest_trace_p95_ms", "ms"},
		{"stream.trace_records_per_s", "1/s"},
		{"stream.ingest_bgp_ms", "ms"},
		{"stream.ingest_bgp_p95_ms", "ms"},
		{"stream.close_ms", "ms"},
		{"stream.events_list_ms", "ms"},
		{"stream.events_list_p95_ms", "ms"},
		{"stream.events_retained", "count"},
		{"stream.diag_wait_ms", "ms"},
		{"stream.events_per_change", "ratio"},
		{"harness.feed_late_p95_ms", "ms"},
		{"harness.feed_late_max_ms", "ms"},
	}
)

// workload is one benchmark workload: run executes one pass of it.
type workload struct {
	name string
	run  func(ctx context.Context, o opts, r *report) error
}

var workloads = []workload{
	{"serve-diagnose", runServeDiagnose},
	{"serve-tiny", runServeTiny},
	{"stream-feed", runStreamFeed},
	{"diagnose-10k", runDiagnose10k},
}

// opts are one run's settings.
type opts struct {
	seed    int64
	window  time.Duration
	trace   bool
	tracer  *tracer     // nil unless trace
	cal     *calibrator // nil if trace
	sensors int         // diagnose-10k mesh size; tests shrink it
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints and the record -json appends.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Trace     bool              `json:"trace,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what a workload measured. Metrics added with set go on
// the result line; info lines are printed for the reader only.
type report struct {
	out       io.Writer
	workload  string
	attempted int
	failed    int
	metrics   map[string]metric
}

// set records a result-line metric and prints it with its sample count.
func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.info(name, v, unit, n)
}

// info prints a measurement that is not on the result line.
func (r *report) info(name string, v float64, unit string, n int) {
	fmt.Fprintf(r.out, "%-14s %-28s %14.4f %-6s n=%d\n", r.workload, name, v, unit, n)
}

// fail counts a failed operation and says why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.out, "%-14s FAIL %s\n", r.workload, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ndbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed: failure sets, feed order and phase, large mesh")
	seconds := fs.Float64("seconds", 25, "measured window of one run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this file")
	jsonOut := fs.String("json", "", "append the run's result record to this file")
	compare := fs.Bool("compare", false, "compare two -json files: ndbench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: ndbench -compare A.json B.json")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "ndbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "ndbench: -seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "ndbench: unknown workload %q (want all, %s)\n", *name, workloadNames())
		return 2
	}
	o := opts{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, sensors: 10000}
	if o.trace {
		o.tracer = newTracer()
	}
	res, err := runWorkload(context.Background(), *wl, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "ndbench: %s: %v\n", wl.name, err)
		return 1
	}
	if o.trace && *spans != "" {
		if err := o.tracer.write(*spans); err != nil {
			fmt.Fprintf(stderr, "ndbench: %v\n", err)
			return 1
		}
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, res); err != nil {
			fmt.Fprintf(stderr, "ndbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		fmt.Fprintf(stderr, "ndbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one pass and checks it reported exactly the metrics of
// that pass.
func runWorkload(ctx context.Context, wl workload, o opts, stdout io.Writer) (result, error) {
	r := &report{out: stdout, workload: wl.name, metrics: map[string]metric{}}
	if !o.trace {
		o.cal = newCalibrator()
	}
	if err := wl.run(ctx, o, r); err != nil {
		return result{}, err
	}
	defs := e2eMetrics
	if o.trace {
		defs = layerMetrics
		for _, d := range defs {
			if _, ok := r.metrics[d.name]; !ok {
				r.metrics[d.name] = metric{Value: 0, Unit: d.unit}
			}
		}
	} else {
		rss, err := peakRSSMiB()
		if err != nil {
			return result{}, err
		}
		r.set("rss_peak_mb", rss, "MiB", 1)
	}
	if len(r.metrics) != len(defs) {
		return result{}, fmt.Errorf("reported %d metrics, want %d", len(r.metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok || m.Unit != d.unit {
			return result{}, fmt.Errorf("metric %s missing or not in %s", d.name, d.unit)
		}
	}
	if r.attempted < 1 {
		return result{}, errors.New("no operation attempted")
	}
	r.info("error_rate", float64(r.failed)/float64(r.attempted), "ratio", r.attempted)
	return result{
		Workload: wl.name, Seed: o.seed, Trace: o.trace,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
	}, nil
}

// runAll runs every workload in its own child process, so set-up time and
// peak memory are each workload's own, and passes their output through.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "ndbench: %v\n", err)
		return 1
	}
	code := 0
	for _, wl := range workloads {
		// The last -workload flag wins.
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", wl.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "ndbench: %s: %v\n", wl.name, err)
			code = 1
		}
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// appendRecord appends res as one JSON line to path.
func appendRecord(path string, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending to %s: %w", path, err)
	}
	return f.Close()
}

// readRecords loads every run record of a -json file.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// peakRSSMiB returns the process's peak resident set in MiB: getrusage's
// maxrss, which Linux keeps in KiB and which equals VmHWM.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
