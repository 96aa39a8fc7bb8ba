package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netdiag/internal/server"
)

// The two serving workloads drive POST /v1/diagnose on an in-process
// server over loopback TCP, closed loop, from loadClients clients: one
// connection each, as many as the machine has processors.

// The clients cycle through a list of requestListLen requests. On the
// research scenario the list holds as many distinct failure sets as its
// 169 mesh links allow with a third of them single links, and identical
// requests stay requestListLen apart, so none is ever in flight twice.
const (
	loadClients    = 2
	requestListLen = 480
)

// research is the scenario serve-diagnose and stream-feed run on: the
// paper-scale research topology of topology seed 1 with 40 sensors at
// random stub ASes. It does not follow -seed: across topology seeds the
// cost of a request moves by about 15%, which would swamp the changes the
// benchmark has to resolve, so -seed draws the failures and the feed.
const research = "research-1"

func registerResearch(reg *server.Registry) error {
	return reg.Register(research, server.ResearchScenario(1, 40))
}

// serveSpec is what distinguishes the two serving workloads.
type serveSpec struct {
	scenario string
	register func(*server.Registry) error
	maxLinks int
	mix      []string
	distinct bool // every failure set distinct: nothing coalesces
	warmup   int  // untimed requests before the window
	// checkAll compares every response, inline, against bytes
	// precomputed per canonical key; otherwise checkSample responses are
	// recomputed after the window.
	checkAll    bool
	checkSample int
}

// runServeDiagnose is the operator's main use: full-size diagnoses on a
// 40-sensor research topology, every layer doing real work.
func runServeDiagnose(ctx context.Context, o opts, r *report) error {
	return runServe(ctx, o, r, serveSpec{
		scenario: research, register: registerResearch,
		maxLinks: 3, mix: diagnoseMix, distinct: true,
		warmup: 10, checkSample: 64,
	})
}

// runServeTiny is the smallest message: Figure 2's three sensors, where
// the serving tier's per-request cost dominates.
func runServeTiny(ctx context.Context, o opts, r *report) error {
	return runServe(ctx, o, r, serveSpec{
		scenario: "fig2",
		register: func(reg *server.Registry) error { return reg.Register("fig2", server.Fig2Scenario) },
		maxLinks: 2, mix: tinyMix,
		warmup: 200, checkAll: true,
	})
}

func runServe(ctx context.Context, o opts, r *report, spec serveSpec) error {
	ref := server.NewRegistry()
	if err := spec.register(ref); err != nil {
		return err
	}
	snap, err := server.NewStore(ref, 0, "", nil).Get(ctx, spec.scenario)
	if err != nil {
		return err
	}
	reqs, err := genRequests(snap, spec.scenario, o.seed, requestListLen, spec.maxLinks, spec.mix, spec.distinct)
	if err != nil {
		return err
	}
	var want map[string][]byte
	if spec.checkAll {
		want = map[string][]byte{}
		for _, q := range reqs {
			if _, ok := want[q.key]; ok {
				continue
			}
			if want[q.key], _, err = directDiagnose(ctx, snap, q, nil, 0); err != nil {
				return err
			}
		}
	}
	build := func() (*server.Server, error) {
		reg := server.NewRegistry()
		if err := spec.register(reg); err != nil {
			return nil, err
		}
		s := server.New(server.Config{Scenarios: reg})
		return s, s.WarmAll(ctx)
	}
	var (
		s      *server.Server
		setups []float64
	)
	if o.trace {
		s, err = build()
	} else {
		s, setups, err = timeSetups(build, o.cal)
	}
	if err != nil {
		return err
	}
	sv, err := serve(s)
	if err != nil {
		return err
	}
	defer sv.stop()

	oc := &outcomes{r: r, reqs: reqs, want: want, kept: map[int][]byte{}}
	var next atomic.Int64
	closedLoop(&next, spec.warmup, 0, func(i int) { oc.post(sv, i, false) })
	okBefore := oc.ok
	do := func(i int) { oc.post(sv, i, true) }
	if o.trace {
		// The traced pass alternates, request by request, an untraced HTTP
		// round trip with a traced run straight through the layers, so that
		// both see the same machine: the processor's speed drifts by tens of
		// percent over seconds, which two separate phases would put into the
		// residual.
		do = func(i int) {
			if i%2 == 0 {
				oc.post(sv, i, true)
			} else {
				oc.direct(ctx, snap, o.tracer, i)
			}
		}
	}
	// The window runs in slices with the load paused between them for a
	// calibration.
	var elapsed time.Duration
	for elapsed < o.window {
		o.cal.calibrate()
		elapsed += closedLoop(&next, 0, min(calibSlice, o.window-elapsed), do)
	}
	if err := sv.stop(); err != nil {
		return fmt.Errorf("server drain: %w", err)
	}
	if !spec.checkAll {
		checkSampled(ctx, o, r, snap, reqs, oc.kept, spec.checkSample)
	}
	if o.trace {
		reportServeTrace(r, o.tracer.snapshot(), oc.lat, oc.shapes)
		return nil
	}
	reportSetup(r, setups, o.cal)
	reportLatency(r, oc.lat, o.cal)
	ok := oc.ok - okBefore
	r.info("diagnose_rps", float64(ok)/elapsed.Seconds(), "req/s", ok)
	return nil
}

// calibSlice is how long the serving workloads run between calibrations.
const calibSlice = time.Second

// reportSetup sets the median set-up time at the reference speed.
func reportSetup(r *report, setups []float64, cal *calibrator) {
	r.set("setup_s", median(setups)*cal.factor(), "s", len(setups))
}

// reportLatency sets the run's median latency at the reference speed,
// with its sample count, and prints p90 and p95 with the samples beyond
// each, the wall-clock median and the calibrations' median kernel time.
// The tails are not on the result line: on this benchmark's 2-CPU machine
// their run-to-run spread exceeded any bound a regression gate could use.
func reportLatency(r *report, ms []float64, cal *calibrator) {
	f := cal.factor()
	p50, _ := percentile(ms, 50)
	r.set("latency_p50_ms", p50*f, "ms", len(ms))
	r.info("latency_mean_ms", mean(ms)*f, "ms", len(ms))
	for _, p := range []float64{90, 95} {
		v, beyond := percentile(ms, p)
		r.info(fmt.Sprintf("latency_p%.0f_ms", p), v*f, "ms", beyond)
	}
	r.info("latency_wall_p50_ms", p50, "ms", len(ms))
	r.info("calibration_ms", cal.kernelMS(), "ms", len(cal.ms))
}

// outcomes collects and checks what the load goroutines observe. With want
// set, every body is compared on arrival with the bytes for its canonical
// key; otherwise successful bodies are kept for checkSampled. mu guards
// the report and every field after it.
type outcomes struct {
	r    *report
	reqs []diagReq
	want map[string][]byte

	mu     sync.Mutex
	ok     int
	lat    []float64 // round trips of the timed HTTP requests, in ms
	kept   map[int][]byte
	shapes []shape // one per traced direct run
}

// post sends request i to the server and checks the response. With timed
// set, its round trip joins lat.
func (oc *outcomes) post(sv *served, i int, timed bool) {
	q := oc.reqs[i%len(oc.reqs)]
	t0 := time.Now()
	status, body := sv.post("/v1/diagnose", q.body)
	ms := time.Since(t0).Seconds() * 1e3
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if timed {
		oc.lat = append(oc.lat, ms)
	}
	oc.r.attempted++
	switch {
	case status != http.StatusOK:
		oc.r.fail("request %d: status %d", i, status)
	case oc.want != nil && !bytes.Equal(body, oc.want[q.key]):
		oc.r.fail("request %d (%s): response differs from the direct pipeline", i, q.key)
	default:
		oc.ok++
		if oc.want == nil {
			oc.kept[i] = body
		}
	}
}

// direct runs request i straight through the layers under tr, checking
// the bytes against want where it is set.
func (oc *outcomes) direct(ctx context.Context, snap *server.Snapshot, tr *tracer, i int) {
	q := oc.reqs[i%len(oc.reqs)]
	body, sh, err := directDiagnose(ctx, snap, q, tr, i+1)
	oc.mu.Lock()
	defer oc.mu.Unlock()
	oc.r.attempted++
	switch {
	case err != nil:
		oc.r.fail("request %d (%s): direct pipeline: %v", i, q.key, err)
	case oc.want != nil && !bytes.Equal(body, oc.want[q.key]):
		oc.r.fail("request %d (%s): traced run differs from the untraced one", i, q.key)
	default:
		oc.shapes = append(oc.shapes, sh)
	}
}

// checkSampled recomputes a seeded sample of the kept responses through
// the direct pipeline and compares the bytes.
func checkSampled(ctx context.Context, o opts, r *report, snap *server.Snapshot, reqs []diagReq, kept map[int][]byte, n int) {
	idx := make([]int, 0, len(kept))
	for i := range kept {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	if len(idx) > n {
		idx = idx[:n]
	}
	for _, i := range idx {
		q := reqs[i%len(reqs)]
		want, _, err := directDiagnose(ctx, snap, q, nil, 0)
		switch {
		case err != nil:
			r.fail("request %d (%s): direct pipeline: %v", i, q.key, err)
		case !bytes.Equal(want, kept[i]):
			r.fail("request %d (%s): response differs from the direct pipeline", i, q.key)
		}
	}
}

// reportServeTrace reports the traced pass: each layer's self time per
// call, their sum per request, and the residual, which is what an HTTP
// round trip costs beyond the layer calls: HTTP, JSON, admission,
// coalescing and the response write, plus the tracing overhead.
func reportServeTrace(r *report, spans []Span, httpMS []float64, shapes []shape) {
	layers := []string{"netsim.fork", "netsim.reconverge", "probe.mesh", "experiment.adapt", "core.diagnose", "core.encode"}
	reportSelfTimes(r, spans, layers, "netsim.reconverge", "probe.mesh", "core.diagnose")
	total := perReqMS(spans, layers...)
	r.set("pipeline.total_ms", mean(total), "ms", len(total))
	r.info("http_latency_mean_ms", mean(httpMS), "ms", len(httpMS))
	r.set("server.residual_ms", mean(httpMS)-mean(total), "ms", len(total))
	reportShapes(r, shapes)
}

// reportShapes reports the per-diagnosis input and output counts.
func reportShapes(r *report, shapes []shape) {
	var traced, changed float64
	counts := map[string][]float64{}
	for _, sh := range shapes {
		traced += float64(sh.pairsTraced)
		changed += float64(sh.pairsChanged)
		counts["core.failure_sets"] = append(counts["core.failure_sets"], float64(sh.failureSets))
		counts["core.reroute_sets"] = append(counts["core.reroute_sets"], float64(sh.rerouteSets))
		counts["core.iterations"] = append(counts["core.iterations"], float64(sh.iterations))
		counts["core.hypothesis_links"] = append(counts["core.hypothesis_links"], float64(sh.hypLinks))
	}
	if n := float64(len(shapes)); n > 0 && traced > 0 {
		r.set("probe.pairs_traced", traced/n, "count", len(shapes))
		r.set("probe.pairs_changed_ratio", changed/traced, "ratio", int(traced))
	}
	for _, name := range sortedKeys(counts) {
		r.set(name, mean(counts[name]), "count", len(counts[name]))
	}
}

// Set-up is timed several times on fresh instances and reported as the
// median: at least minSetups, then more while under setupBudget, so a
// sub-millisecond set-up gets enough samples to steady its median.
const (
	minSetups   = 5
	maxSetups   = 1000
	setupBudget = time.Second
	calibSetups = 200 * time.Millisecond
)

// timeSetups builds the system repeatedly and returns the last instance
// with every build's wall-clock duration in seconds, calibrating before
// the first build and then every calibSetups.
func timeSetups(build func() (*server.Server, error), cal *calibrator) (*server.Server, []float64, error) {
	var (
		s      *server.Server
		ds     []float64
		total  time.Duration
		sinceC time.Duration
	)
	for len(ds) < minSetups || (total < setupBudget && len(ds) < maxSetups) {
		if s != nil {
			s.Close()
		}
		if len(ds) == 0 || sinceC >= calibSetups {
			cal.calibrate()
			sinceC = 0
		}
		t0 := time.Now()
		var err error
		if s, err = build(); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		total += d
		sinceC += d
		ds = append(ds, d.Seconds())
	}
	return s, ds, nil
}

// served is a server running on a loopback listener with its client.
type served struct {
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

// serve runs s on a fresh loopback listener through its own lifecycle
// (Serve, then the graceful drain on stop).
func serve(s *server.Server) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	sv := &served{
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     loadClients,
			MaxIdleConnsPerHost: loadClients,
			DisableCompression:  true,
		}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { sv.done <- s.Serve(ctx, ln) }()
	return sv, nil
}

// stop drains the server and waits for Serve to return. Safe to call
// more than once.
func (sv *served) stop() error {
	sv.once.Do(func() {
		sv.client.CloseIdleConnections()
		sv.cancel()
		sv.err = <-sv.done
	})
	return sv.err
}

// closedLoop calls do from loadClients goroutines, each calling again as
// soon as its previous call returns, with indices drawn in order from the
// shared cursor next. It stops after count calls, or with count 0 once
// window has passed, and returns the time it ran.
func closedLoop(next *atomic.Int64, count int, window time.Duration, do func(i int)) time.Duration {
	stopAt := next.Load() + int64(count)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for count > 0 || time.Since(start) < window {
				i := next.Add(1) - 1
				if count > 0 && i >= stopAt {
					return
				}
				do(int(i))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// post sends one request and reads the whole response; status 0 means
// the exchange itself failed.
func (sv *served) post(path string, body []byte) (int, []byte) {
	return sv.read(sv.client.Post(sv.url+path, "application/json", bytes.NewReader(body)))
}

// get is post for GET requests.
func (sv *served) get(path string) (int, []byte) {
	return sv.read(sv.client.Get(sv.url + path))
}

func (sv *served) read(resp *http.Response, err error) (int, []byte) {
	if err != nil {
		return 0, nil
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}
