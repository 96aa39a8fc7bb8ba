package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"netdiag/internal/core"
	"netdiag/internal/telemetry"
)

// Fleet-wide observability tests: trace propagation across the front and
// the shard workers, the /metrics exposition on both tiers, structured
// access-log content, and the contract that tracing never changes a
// response body.

// postTraced runs one POST with an explicit ND-Trace-Id header.
func postTraced(t *testing.T, h http.Handler, path, body, traceID string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if traceID != "" {
		req.Header.Set(core.TraceHeader, traceID)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// findTrace fetches /debug/traces from the handler and returns the
// record for the given trace ID, failing the test when absent.
func findTrace(t *testing.T, h http.Handler, id string) telemetry.TraceRecord {
	t.Helper()
	w := get(t, h, "/debug/traces")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/traces = %d: %s", w.Code, w.Body.String())
	}
	var page struct {
		Traces []telemetry.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatalf("decoding /debug/traces: %v: %s", err, w.Body.String())
	}
	for _, rec := range page.Traces {
		if rec.TraceID == id {
			return rec
		}
	}
	t.Fatalf("trace %q not in /debug/traces (%d records): %s", id, len(page.Traces), w.Body.String())
	return telemetry.TraceRecord{}
}

func spanNames(rec telemetry.TraceRecord) map[string]int {
	names := map[string]int{}
	for _, sp := range rec.Spans {
		names[sp.Name]++
	}
	return names
}

// TestTracePropagationAcrossFleet pins the tentpole contract: one trace
// ID set by the client follows the request through the front into the
// owning shard, both tiers echo it in the response header, and both
// tiers retain a stitched span record for it in /debug/traces.
func TestTracePropagationAcrossFleet(t *testing.T) {
	front, workers := fleet(t)
	shard := ShardIndex("fig2", len(workers))

	const traceID = "fleet-trace-0001"
	w := postTraced(t, front.Handler(), "/v1/diagnose",
		`{"scenario":"fig2","algorithm":"nd-edge","fail_links":[["b1","b2"]]}`, traceID)
	if w.Code != http.StatusOK {
		t.Fatalf("diagnose via front = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(core.TraceHeader); got != traceID {
		t.Fatalf("front echoed trace %q, want %q", got, traceID)
	}

	// The owning worker saw the same ID and recorded the pipeline spans.
	rec := findTrace(t, workers[shard].Handler(), traceID)
	if rec.Op != "diagnose" || rec.Scenario != "fig2" || rec.Algorithm != "nd-edge" || rec.Status != http.StatusOK {
		t.Errorf("worker trace record = %+v, want op=diagnose scenario=fig2 algorithm=nd-edge status=200", rec)
	}
	names := spanNames(rec)
	for _, want := range []string{"admission_wait", "fork", "reconverge", "mesh", "adapt", "diagnose", "encode"} {
		if names[want] == 0 {
			t.Errorf("worker trace missing span %q (spans: %v)", want, names)
		}
	}

	// The front retained its own view: the proxy record naming the shard
	// it routed to, with the backend round-trip as a span.
	frec := findTrace(t, front.Handler(), traceID)
	if frec.Op != "proxy" || frec.Status != http.StatusOK || frec.Shard == "" {
		t.Errorf("front trace record = %+v, want op=proxy status=200 with shard set", frec)
	}
	if n := spanNames(frec); n["proxy_backend"] == 0 {
		t.Errorf("front trace missing proxy_backend span (spans: %v)", n)
	}

	// Batch rides the same plumbing, and its per-item spans carry
	// iteration numbers.
	const batchID = "fleet-trace-batch-02"
	w = postTraced(t, front.Handler(), "/v1/diagnose/batch",
		`{"scenario":"fig2","items":[{"fail_links":[["b1","b2"]]},{"fail_routers":["y1"]}]}`, batchID)
	if w.Code != http.StatusOK {
		t.Fatalf("batch via front = %d: %s", w.Code, w.Body.String())
	}
	brec := findTrace(t, workers[shard].Handler(), batchID)
	if brec.Op != "batch" {
		t.Errorf("batch trace op = %q, want batch", brec.Op)
	}
	iters := map[int]bool{}
	for _, sp := range brec.Spans {
		if sp.Name == "item" {
			iters[sp.Iteration] = true
		}
	}
	if !iters[1] || !iters[2] {
		t.Errorf("batch trace item iterations = %v, want {1,2} (spans: %+v)", iters, brec.Spans)
	}
}

// TestTraceHeaderNeverChangesBody pins byte-identity: the exact same
// diagnosis (and error envelope) bytes come back whether the client sent
// a trace ID, sent garbage, or sent nothing — the ID lives in headers
// only.
func TestTraceHeaderNeverChangesBody(t *testing.T) {
	s := New(Config{Telemetry: telemetry.New()})
	defer s.Close()
	h := s.Handler()

	body := `{"scenario":"fig2","algorithm":"nd-edge","fail_links":[["b1","b2"]]}`
	plain := postTraced(t, h, "/v1/diagnose", body, "")
	traced := postTraced(t, h, "/v1/diagnose", body, "abc123")
	garbage := postTraced(t, h, "/v1/diagnose", body, "has space")
	if plain.Code != http.StatusOK {
		t.Fatalf("diagnose = %d: %s", plain.Code, plain.Body.String())
	}
	if !bytes.Equal(plain.Body.Bytes(), traced.Body.Bytes()) || !bytes.Equal(plain.Body.Bytes(), garbage.Body.Bytes()) {
		t.Fatal("diagnosis bytes differ depending on the ND-Trace-Id header")
	}

	// Header semantics: a valid client ID is echoed, anything else is
	// replaced by a freshly minted valid ID at the edge.
	if got := traced.Header().Get(core.TraceHeader); got != "abc123" {
		t.Errorf("valid client trace echoed as %q, want abc123", got)
	}
	for _, w := range []*httptest.ResponseRecorder{plain, garbage} {
		id := w.Header().Get(core.TraceHeader)
		if !telemetry.ValidTraceID(id) || id == "has space" {
			t.Errorf("edge minted trace ID %q, want a fresh valid ID", id)
		}
	}

	// Error envelopes carry the ID in the header too, with stable bytes.
	e1 := postTraced(t, h, "/v1/diagnose", `{"scenario":"nope"}`, "")
	e2 := postTraced(t, h, "/v1/diagnose", `{"scenario":"nope"}`, "abc123")
	if e1.Code != http.StatusNotFound || !bytes.Equal(e1.Body.Bytes(), e2.Body.Bytes()) {
		t.Errorf("error envelope differs under tracing: %d %q vs %q",
			e1.Code, e1.Body.String(), e2.Body.String())
	}
	if got := e2.Header().Get(core.TraceHeader); got != "abc123" {
		t.Errorf("error response trace header = %q, want abc123", got)
	}
}

// promFamily is one parsed metric family from a text-format scrape.
type promFamily struct {
	kind    string
	samples map[string]float64 // series key (name or name{le="..."} etc.) -> value
}

// parseProm is the minimal Prometheus text-format (0.0.4) parser the
// golden test needs: # TYPE lines open a family, sample lines attach to
// the family their name prefix belongs to. Anything malformed fails the
// test immediately.
func parseProm(t *testing.T, text string) map[string]promFamily {
	t.Helper()
	fams := map[string]promFamily{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) != 4 || parts[1] != "TYPE" {
				t.Fatalf("malformed comment line %q", line)
			}
			fams[parts[2]] = promFamily{kind: parts[3], samples: map[string]float64{}}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series, valText := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil && valText != "+Inf" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		fam, ok := fams[name]
		if !ok {
			// Histogram child series (_bucket/_sum/_count) belong to the
			// base family announced by # TYPE.
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, found := strings.CutSuffix(name, suf); found {
					if fam, ok = fams[base]; ok {
						break
					}
				}
			}
			if !ok {
				t.Fatalf("sample %q precedes its # TYPE line", line)
			}
		}
		fam.samples[series] = val
	}
	return fams
}

// TestMetricsExposition is the /metrics golden test: a worker that served
// two diagnoses exposes its counters and histograms in text format with
// all durations normalized to seconds, and a rescrape keeps the exact
// same family structure.
func TestMetricsExposition(t *testing.T) {
	s := New(Config{Telemetry: telemetry.New()})
	defer s.Close()
	h := s.Handler()

	for i := 0; i < 2; i++ {
		if w := post(t, h, `{"scenario":"fig2","algorithm":"nd-edge","fail_links":[["b1","b2"]]}`); w.Code != http.StatusOK {
			t.Fatalf("diagnose %d = %d: %s", i, w.Code, w.Body.String())
		}
	}

	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q, want text/plain; version=0.0.4", ct)
	}
	fams := parseProm(t, w.Body.String())

	if f, ok := fams["server_requests_total"]; !ok || f.kind != "counter" {
		t.Fatalf("server_requests_total family = %+v, want a counter", fams)
	} else if got := f.samples["server_requests_total"]; got != 2 {
		t.Errorf("server_requests_total = %v, want 2", got)
	}

	for _, name := range []string{"server_request_seconds", "server_admission_wait_seconds", "pool_queue_wait_seconds"} {
		f, ok := fams[name]
		if !ok || f.kind != "histogram" {
			t.Fatalf("%s missing or not a histogram (families: %v)", name, famNames(fams))
		}
		// The pool histogram counts every parallel pipeline subtask, so
		// only the request and admission histograms pin an exact count;
		// all must keep +Inf == _count.
		inf, count := f.samples[name+`_bucket{le="+Inf"}`], f.samples[name+"_count"]
		if inf != count || count < 2 {
			t.Errorf("%s: +Inf bucket %v vs _count %v, want equal and >= 2", name, inf, count)
		}
		if name != "pool_queue_wait_seconds" && count != 2 {
			t.Errorf("%s_count = %v, want exactly 2", name, count)
		}
		// Seconds scale: two sub-minute requests sum well below 120s and
		// above zero.
		if sum := f.samples[name+"_sum"]; sum <= 0 || sum > 120 {
			t.Errorf("%s_sum = %v, not in seconds scale", name, sum)
		}
	}

	// The normalization seam leaves no nanosecond-named series behind.
	for name := range fams {
		if strings.HasSuffix(name, "_ns") {
			t.Errorf("metric %s escaped duration normalization", name)
		}
	}

	// Structural stability: a second scrape exposes the same families.
	again := parseProm(t, get(t, h, "/metrics").Body.String())
	if a, b := famNames(fams), famNames(again); a != b {
		t.Errorf("family set changed between scrapes:\n%s\nvs\n%s", a, b)
	}
}

// TestAdmissionWaitSeries pins that the admission wait has a series of
// its own: one diagnosis observes "server.admission_wait_ns" once, and
// "pool.queue_wait_ns" holds exactly one pickup wait per pool task.
func TestAdmissionWaitSeries(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Telemetry: reg})
	defer s.Close()
	if w := post(t, s.Handler(), `{"scenario":"fig2","algorithm":"nd-edge","fail_links":[["b1","b2"]]}`); w.Code != http.StatusOK {
		t.Fatalf("diagnose = %d: %s", w.Code, w.Body.String())
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["server.admission_wait_ns"].Count; got != 1 {
		t.Errorf("server.admission_wait_ns count = %d after one diagnosis, want 1", got)
	}
	if got, want := snap.Histograms["pool.queue_wait_ns"].Count, snap.Counters["pool.tasks_started"]; got != want {
		t.Errorf("pool.queue_wait_ns count = %d, want pool.tasks_started = %d", got, want)
	}
}

func famNames(fams map[string]promFamily) string {
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// TestFrontMetricsReExportShards pins the front's scrape-time fleet view:
// per-shard up/probe-latency gauges appear alongside the proxy counters,
// and a shard going dark flips its gauge to 0 on the next scrape.
func TestFrontMetricsReExportShards(t *testing.T) {
	front, workers := fleet(t)

	fams := parseProm(t, get(t, front.Handler(), "/metrics").Body.String())
	for i := range workers {
		up := "front_shard" + strconv.Itoa(i) + "_up"
		if f, ok := fams[up]; !ok || f.kind != "gauge" || f.samples[up] != 1 {
			t.Errorf("%s = %+v, want gauge 1", up, fams[up])
		}
		probe := "front_shard" + strconv.Itoa(i) + "_probe_seconds"
		if f, ok := fams[probe]; !ok || f.kind != "gauge" {
			t.Errorf("%s missing from front exposition (families: %s)", probe, famNames(fams))
		} else if v := f.samples[probe]; v <= 0 || v > 60 {
			t.Errorf("%s = %v, not in seconds scale", probe, v)
		}
	}

	// Kill one shard: the next scrape reprobes and reports it down.
	dead := ShardIndex("fig1", len(workers))
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	front.backends[dead] = ts.URL
	fams = parseProm(t, get(t, front.Handler(), "/metrics").Body.String())
	up := "front_shard" + strconv.Itoa(dead) + "_up"
	if got := fams[up].samples[up]; got != 0 {
		t.Errorf("%s after shard death = %v, want 0", up, got)
	}
}

// TestBadGatewayRetryAfterParity pins the 502 surface end to end: the
// envelope's retry_after_s matches the Retry-After header, and both the
// failure log and the access line name the failing shard's backend.
func TestBadGatewayRetryAfterParity(t *testing.T) {
	front, workers := fleet(t)
	dead := ShardIndex("fig1", len(workers))
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	front.backends[dead] = ts.URL

	var buf bytes.Buffer
	front.log = slog.New(slog.NewJSONHandler(&buf, nil))

	const traceID = "deadshard-trace-1"
	w := postTraced(t, front.Handler(), "/v1/diagnose", `{"scenario":"fig1"}`, traceID)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("dead shard = %d, want 502: %s", w.Code, w.Body.String())
	}
	var e struct {
		Error core.WireError `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("decoding envelope: %v: %s", err, w.Body.String())
	}
	if e.Error.Code != core.ErrBadGateway || e.Error.RetryAfterS != 1 {
		t.Errorf("envelope = %+v, want code=bad_gateway retry_after_s=1", e.Error)
	}
	if got := w.Header().Get("Retry-After"); got != strconv.Itoa(e.Error.RetryAfterS) {
		t.Errorf("Retry-After header %q does not match envelope retry_after_s %d", got, e.Error.RetryAfterS)
	}
	if got := w.Header().Get(core.TraceHeader); got != traceID {
		t.Errorf("502 trace header = %q, want %q", got, traceID)
	}

	logs := buf.String()
	for _, want := range []string{"shard backend failed", "access", ts.URL, traceID} {
		if !strings.Contains(logs, want) {
			t.Errorf("front logs missing %q:\n%s", want, logs)
		}
	}
	// The retained trace also names the failing shard.
	rec := findTrace(t, front.Handler(), traceID)
	if rec.Status != http.StatusBadGateway || rec.Shard != ts.URL {
		t.Errorf("502 trace record = %+v, want status=502 shard=%s", rec, ts.URL)
	}
}

// TestSlowRequestPromotion pins the -slow-ms contract: with a 1ns
// threshold every request is "slow", so the access line is followed by a
// warn line carrying the per-phase span breakdown.
func TestSlowRequestPromotion(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{
		Telemetry:     telemetry.New(),
		Logger:        slog.New(slog.NewJSONHandler(&buf, nil)),
		SlowThreshold: time.Nanosecond,
	})
	defer s.Close()

	w := post(t, s.Handler(), `{"scenario":"fig2","algorithm":"nd-edge","fail_links":[["b1","b2"]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("diagnose = %d: %s", w.Code, w.Body.String())
	}
	traceID := w.Header().Get(core.TraceHeader)

	logs := buf.String()
	for _, want := range []string{
		`"msg":"access"`, `"msg":"slow request"`, traceID,
		`"scenario":"fig2"`, `"algorithm":"nd-edge"`, `"queue_wait_s"`,
		`"name":"fork"`, `"name":"diagnose"`, `"name":"encode"`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("slow-request logs missing %q:\n%s", want, logs)
		}
	}
}
