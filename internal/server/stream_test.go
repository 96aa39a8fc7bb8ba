package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"netdiag/internal/core"
	"netdiag/internal/stream"
	"netdiag/internal/telemetry"
)

// ingestTask is one POST against an ingest endpoint: a line-aligned
// chunk of the committed feed. Trace chunks keep each probe's lines
// together (a probe must complete within one body); BGP records travel
// one per request so the parallel replay exercises maximal reordering.
type ingestTask struct {
	path string
	body string
}

// streamFeedTasks loads the committed fig2 feed and splits it into the
// per-request chunks the replay posts concurrently.
func streamFeedTasks(t *testing.T) []ingestTask {
	t.Helper()
	var tasks []ingestTask

	bgpRaw, err := os.ReadFile(filepath.Join("testdata", "streamfeed", "bgp.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(bgpRaw)), "\n") {
		tasks = append(tasks, ingestTask{path: "/v1/ingest/bgp", body: line + "\n"})
	}

	traceRaw, err := os.ReadFile(filepath.Join("testdata", "streamfeed", "trace.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var probeID string
	var chunk []string
	flush := func() {
		if len(chunk) > 0 {
			tasks = append(tasks, ingestTask{path: "/v1/ingest/traceroute", body: strings.Join(chunk, "\n") + "\n"})
			chunk = nil
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(string(traceRaw)), "\n") {
		var hdr struct {
			Probe string `json:"probe"`
		}
		if err := json.Unmarshal([]byte(line), &hdr); err != nil {
			t.Fatalf("feed line %q: %v", line, err)
		}
		if hdr.Probe != probeID {
			flush()
			probeID = hdr.Probe
		}
		chunk = append(chunk, line)
	}
	flush()
	return tasks
}

// pollEvents polls GET /v1/events?scenario= until every event has
// reached a terminal status, returning the final body verbatim.
func pollEvents(t *testing.T, h http.Handler, scenario string) []byte {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		w := get(t, h, "/v1/events?scenario="+scenario)
		if w.Code != http.StatusOK {
			t.Fatalf("GET /v1/events = %d: %s", w.Code, w.Body.String())
		}
		var evs []core.WireEvent
		if err := json.Unmarshal(w.Body.Bytes(), &evs); err != nil {
			t.Fatalf("decoding events: %v", err)
		}
		settled := len(evs) > 0
		for _, ev := range evs {
			if ev.Status != core.EventDiagnosed && ev.Status != core.EventFailed {
				settled = false
			}
		}
		if settled {
			return w.Body.Bytes()
		}
		if time.Now().After(deadline) {
			t.Fatalf("events never settled: %s", w.Body.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// replayStreamFeed replays the committed fig2 feed against a fresh
// ingest server at the given POST parallelism, shuffled per parallelism,
// with or without client trace IDs, and returns the settled /v1/events
// body.
func replayStreamFeed(t *testing.T, par int, withTrace bool) []byte {
	t.Helper()
	s := New(Config{Telemetry: telemetry.New(), Ingest: true})
	defer s.Close()
	h := s.Handler()
	tasks := streamFeedTasks(t)
	// Deterministically shuffled per configuration so different runs
	// arrive in genuinely different orders.
	rnd := rand.New(rand.NewSource(int64(par)*7919 + 17))
	rnd.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })

	ch := make(chan ingestTask)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			seq := 0
			for tk := range ch {
				req := httptest.NewRequest(http.MethodPost, tk.path+"?scenario=fig2", strings.NewReader(tk.body))
				if withTrace {
					req.Header.Set(core.TraceHeader, fmt.Sprintf("replay-%d-%d-%d", par, worker, seq))
				}
				seq++
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				var resp struct {
					Accepted int    `json:"accepted"`
					Rejected int    `json:"rejected"`
					FirstErr string `json:"first_error"`
				}
				err := json.Unmarshal(w.Body.Bytes(), &resp)
				mu.Lock()
				switch {
				case w.Code != http.StatusOK:
					if firstErr == nil {
						firstErr = fmt.Errorf("POST %s = %d: %s", tk.path, w.Code, w.Body.String())
					}
				case err != nil:
					if firstErr == nil {
						firstErr = fmt.Errorf("decoding ingest response: %v", err)
					}
				case resp.Rejected != 0:
					if firstErr == nil {
						firstErr = fmt.Errorf("feed chunk rejected: %s", resp.FirstErr)
					}
				}
				mu.Unlock()
			}
		}(i)
	}
	for _, tk := range tasks {
		ch <- tk
	}
	close(ch)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return pollEvents(t, h, "fig2")
}

// TestStreamReplayDeterminism is the acceptance check for the streaming
// plane: the committed feed replayed at parallelism 1 and 8, with
// tracing off and on, must yield byte-identical /v1/events bodies —
// the journal's (ts, key) order, not arrival order, defines the run.
func TestStreamReplayDeterminism(t *testing.T) {
	seq := replayStreamFeed(t, 1, false)
	par := replayStreamFeed(t, 8, false)
	traced := replayStreamFeed(t, 8, true)

	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel replay diverged from sequential:\n--- par=1 ---\n%s\n--- par=8 ---\n%s", seq, par)
	}
	if !bytes.Equal(seq, traced) {
		t.Fatalf("traced replay diverged from untraced:\n--- off ---\n%s\n--- on ---\n%s", seq, traced)
	}

	var evs []core.WireEvent
	if err := json.Unmarshal(seq, &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1 correlated event:\n%s", len(evs), seq)
	}
	ev := evs[0]
	if ev.Status != core.EventDiagnosed {
		t.Fatalf("event status = %q, want diagnosed (error %q)", ev.Status, ev.Error)
	}
	if len(ev.Observations) != 4 {
		t.Fatalf("observations = %d, want 4 (2 withdrawals + 2 failing traces)", len(ev.Observations))
	}
	if ev.TraceID != ev.ID || !telemetry.ValidTraceID(ev.TraceID) {
		t.Fatalf("trace id %q should equal the event id %q and be valid", ev.TraceID, ev.ID)
	}
	if ev.Hypothesis == nil {
		t.Fatal("diagnosed event carries no hypothesis")
	}
}

// TestStreamEventHandOff drives a closed event through the server's
// queue hand-off while the only worker is busy and nothing may wait: the
// diagnosis is shed and counted, the event lists as pending, and once
// the worker is free a listing retries it to diagnosed through the queue.
func TestStreamEventHandOff(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Workers: 1, QueueDepth: -1, Telemetry: reg, Ingest: true})
	defer s.Close()
	if err := s.WarmAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	gate := make(chan struct{})
	started := make(chan struct{}, 2) // one per job: the held request, the event
	s.testJobStart = func() {
		started <- struct{}{}
		<-gate
	}
	held := make(chan int, 1)
	go func() { held <- post(t, h, `{"scenario":"fig2","fail_links":[["b1","b2"]]}`).Code }()
	<-started // the worker is busy; the queue has no waiting room

	// Disconnect s3 (both y3 links); the keepalive moves record time past
	// the idle close, which closes the event and submits its diagnosis.
	feed := `{"ts":1000,"type":"withdrawal","a":"y3","b":"y4"}
{"ts":1200,"type":"withdrawal","a":"y2","b":"y3"}
{"ts":20000,"type":"keepalive"}
`
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest/bgp?scenario=fig2", strings.NewReader(feed))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body.String())
	}
	waitCounter(t, reg, "server.requests_shed", 1)
	if got := reg.Snapshot().Counters["server.requests_shed"]; got != 1 {
		t.Fatalf("requests_shed = %d before any retry, want 1", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		w := get(t, h, "/v1/events?scenario=fig2")
		var evs []core.WireEvent
		if err := json.Unmarshal(w.Body.Bytes(), &evs); err != nil {
			t.Fatalf("decoding events: %v", err)
		}
		if len(evs) != 1 || evs[0].Status == core.EventDiagnosed || evs[0].Status == core.EventFailed {
			t.Fatalf("with the worker held, events = %s, want one undiagnosed event", w.Body.String())
		}
		if evs[0].Status == core.EventPending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shed event never listed as pending: %s", w.Body.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(gate)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held diagnosis = %d, want 200", code)
	}
	var evs []core.WireEvent
	if err := json.Unmarshal(pollEvents(t, h, "fig2"), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Status != core.EventDiagnosed || evs[0].Hypothesis == nil {
		t.Fatalf("after the worker freed, events = %+v, want one diagnosed event", evs)
	}
	// One job for the held request, one for the event: the shed attempts
	// never reached a worker. Queue.worker counts a job after it returns.
	waitCounter(t, reg, "pool.queue_executed", 2)
	if got := reg.Snapshot().Counters["pool.queue_executed"]; got != 2 {
		t.Fatalf("queue executed %d jobs, want 2", got)
	}
}

// TestStreamLateRecordRediagnoses pins the flight key of an event's
// diagnosis. The only worker holds the first run of a failing s1→s3
// traceroute's event, closed under the healthy mesh, when a late b1~b2
// withdrawal re-closes the event under another T+ mesh: the re-run must
// queue as its own flight rather than join the stale one, and the settled
// listing must equal in-order ingestion.
func TestStreamLateRecordRediagnoses(t *testing.T) {
	trace := func(t *testing.T, s *Server) []any {
		snap, err := s.store.Get(context.Background(), "fig2")
		if err != nil {
			t.Fatal(err)
		}
		var recs []any
		for i, name := range []string{"a1", "a2"} {
			id, _ := snap.Router(name)
			recs = append(recs, stream.TraceRecord{Probe: "pr-late", TS: 1000, Src: "s1", Dst: "s3",
				Hop: &stream.HopRecord{TTL: i + 1, Addr: snap.Scenario.Topo.Router(id).Addr}})
		}
		return append(recs, stream.TraceRecord{Probe: "pr-late", TS: 1000, Src: "s1", Dst: "s3", Done: true})
	}
	withdrawal := stream.BGPRecord{TS: 2000, Type: stream.BGPWithdrawal, A: "b1", B: "b2"}
	keepalive := stream.BGPRecord{TS: 20000, Type: stream.BGPKeepalive}

	inOrder := New(Config{Telemetry: telemetry.New(), Ingest: true})
	defer inOrder.Close()
	ingestLines(t, inOrder.Handler(), "fig2", "traceroute", trace(t, inOrder)...)
	ingestLines(t, inOrder.Handler(), "fig2", "bgp", withdrawal, keepalive)
	want := pollEvents(t, inOrder.Handler(), "fig2")

	reg := telemetry.New()
	s := New(Config{Workers: 1, QueueDepth: 8, Telemetry: reg, Ingest: true})
	defer s.Close()
	h := s.Handler()
	held, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.testJobStart = func() {
		first := false
		once.Do(func() { first = true })
		if first {
			close(held)
			<-gate
		}
	}
	ingestLines(t, h, "fig2", "traceroute", trace(t, s)...)
	ingestLines(t, h, "fig2", "bgp", keepalive)
	<-held
	ingestLines(t, h, "fig2", "bgp", withdrawal)
	// Three flights, one per run: the held one, the b1~b2 event's and the
	// re-run, which has to reach the group while the held run is in it.
	waitCounter(t, reg, "server.coalesce_misses", 3)
	close(gate)
	if got := pollEvents(t, h, "fig2"); !bytes.Equal(got, want) {
		t.Fatalf("late record left a stale diagnosis:\n--- in order ---\n%s\n--- late ---\n%s", want, got)
	}
}

// TestStreamIngestErrors pins the v1 error envelope on the ingest
// surface: missing and unknown scenarios fail fast without converging
// anything.
func TestStreamIngestErrors(t *testing.T) {
	s := New(Config{Telemetry: telemetry.New(), Ingest: true})
	defer s.Close()
	h := s.Handler()

	cases := []struct {
		path string
		code int
		want string
	}{
		{"/v1/ingest/bgp", http.StatusBadRequest, core.ErrBadRequest},
		{"/v1/ingest/traceroute?scenario=nope", http.StatusNotFound, core.ErrNotFound},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(`{}`))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != c.code {
			t.Fatalf("POST %s = %d, want %d: %s", c.path, w.Code, c.code, w.Body.String())
		}
		var env struct {
			Error core.WireError `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("POST %s: decoding envelope: %v", c.path, err)
		}
		if env.Error.Code != c.want {
			t.Fatalf("POST %s error code = %q, want %q", c.path, env.Error.Code, c.want)
		}
	}

	// A draining server refuses ingest with the retryable 503 envelope.
	s.draining.Store(true)
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest/bgp?scenario=fig2", strings.NewReader("{}\n"))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var env struct {
		Error core.WireError `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("draining ingest: decoding envelope: %v (%s)", err, w.Body.String())
	}
	if w.Code != http.StatusServiceUnavailable || env.Error.Code != core.ErrDraining {
		t.Fatalf("draining ingest = %d %+v, want 503 draining", w.Code, env.Error)
	}
	if ra := w.Result().Header.Get("Retry-After"); ra != "1" || env.Error.RetryAfterS != 1 {
		t.Fatalf("draining ingest Retry-After = %q, retry_after_s = %d, want 1 and 1", ra, env.Error.RetryAfterS)
	}

	// Ingest endpoints are absent entirely when Config.Ingest is off.
	plain := New(Config{Telemetry: telemetry.New()})
	defer plain.Close()
	req = httptest.NewRequest(http.MethodPost, "/v1/ingest/bgp?scenario=fig2", strings.NewReader("{}\n"))
	w = httptest.NewRecorder()
	plain.Handler().ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		t.Fatal("ingest should not be routed without Config.Ingest")
	}
}

// feedOutage posts the BGP records that disconnect fig2's sensor s3
// (both y3 links) from record time ts on, then a keepalive far enough
// past them to close the event and submit its diagnosis.
func feedOutage(t *testing.T, h http.Handler, scenario string, ts int64) {
	t.Helper()
	feed := fmt.Sprintf(`{"ts":%d,"type":"withdrawal","a":"y3","b":"y4"}
{"ts":%d,"type":"withdrawal","a":"y2","b":"y3"}
{"ts":%d,"type":"keepalive"}
`, ts, ts+200, ts+19000)
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest/bgp?scenario="+scenario, strings.NewReader(feed))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest into %s = %d: %s", scenario, w.Code, w.Body.String())
	}
}

// listingElements splits a /v1/events body into its raw elements (as
// rendered inside the listing) and their decoded forms.
func listingElements(t *testing.T, body []byte) ([]json.RawMessage, []core.WireEvent) {
	t.Helper()
	var raw []json.RawMessage
	var evs []core.WireEvent
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("decoding listing: %v: %s", err, body)
	}
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("decoding listing: %v: %s", err, body)
	}
	return raw, evs
}

// wantNotFound asserts the 404 not_found envelope.
func wantNotFound(t *testing.T, w *httptest.ResponseRecorder, what string) {
	t.Helper()
	var env struct {
		Error core.WireError `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("%s: decoding envelope: %v (%s)", what, err, w.Body.String())
	}
	if w.Code != http.StatusNotFound || env.Error.Code != core.ErrNotFound {
		t.Fatalf("%s = %d %+v, want 404 %s", what, w.Code, env.Error, core.ErrNotFound)
	}
	if ra := w.Result().Header.Get("Retry-After"); ra != "" || env.Error.RetryAfterS != 0 {
		t.Fatalf("%s carries Retry-After %q / retry_after_s %d; a 404 is not retryable", what, ra, env.Error.RetryAfterS)
	}
}

// TestStreamEventsListing pins GET /v1/events across scenarios: without
// ?scenario= the listing merges every fed scenario's events, element for
// element as each scenario lists them, sorted by (first_ts, id) rather
// than by scenario; a registered scenario no feed has reached lists [];
// an unknown one is a 404.
func TestStreamEventsListing(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"a", "b", "idle"} {
		if err := reg.Register(name, Fig2Scenario); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Scenarios: reg, Telemetry: telemetry.New(), Ingest: true})
	defer s.Close()
	h := s.Handler()

	// b's outage starts first in record time, so b's event must lead the
	// merged listing although a sorts first by name.
	feedOutage(t, h, "a", 3000)
	feedOutage(t, h, "b", 1000)
	rawA, evsA := listingElements(t, pollEvents(t, h, "a"))
	rawB, evsB := listingElements(t, pollEvents(t, h, "b"))
	if len(evsA) != 1 || len(evsB) != 1 {
		t.Fatalf("events a=%d b=%d, want one each", len(evsA), len(evsB))
	}
	if evsA[0].ID == evsB[0].ID {
		t.Fatalf("scenarios a and b share event id %q", evsA[0].ID)
	}

	w := get(t, h, "/v1/events")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/events = %d: %s", w.Code, w.Body.String())
	}
	raw, evs := listingElements(t, w.Body.Bytes())
	if len(raw) != 2 {
		t.Fatalf("merged listing has %d events, want 2: %s", len(raw), w.Body.String())
	}
	if evs[0].ID != evsB[0].ID || evs[1].ID != evsA[0].ID {
		t.Fatalf("merged order = [%s %s], want b's event (first_ts %d) before a's (first_ts %d)",
			evs[0].ID, evs[1].ID, evsB[0].FirstTS, evsA[0].FirstTS)
	}
	if !bytes.Equal(raw[0], rawB[0]) || !bytes.Equal(raw[1], rawA[0]) {
		t.Fatalf("merged elements differ from the per-scenario listings:\n%s\n--- a ---\n%s\n--- b ---\n%s",
			w.Body.String(), rawA[0], rawB[0])
	}

	w = get(t, h, "/v1/events?scenario=idle")
	if w.Code != http.StatusOK || w.Body.String() != "[]\n" {
		t.Fatalf("never-fed scenario lists %d %q, want 200 %q", w.Code, w.Body.String(), "[]\n")
	}
	wantNotFound(t, get(t, h, "/v1/events?scenario=nope"), "GET /v1/events?scenario=nope")
}

// TestStreamEventByID: GET /v1/events/{id} renders a listed event exactly
// as its listing element (modulo the listing's indentation), and an
// unknown ID is the 404 envelope.
func TestStreamEventByID(t *testing.T) {
	s := New(Config{Telemetry: telemetry.New(), Ingest: true})
	defer s.Close()
	h := s.Handler()

	feedOutage(t, h, "fig2", 1000)
	raw, evs := listingElements(t, pollEvents(t, h, "fig2"))
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	w := get(t, h, "/v1/events/"+evs[0].ID)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/events/%s = %d: %s", evs[0].ID, w.Code, w.Body.String())
	}
	if ct := w.Result().Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var want, got bytes.Buffer
	if err := json.Compact(&want, raw[0]); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&got, w.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("event by id differs from its listing element:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	wantNotFound(t, get(t, h, "/v1/events/ev-0000000000000000"), "GET /v1/events/ev-0000000000000000")
}

// TestStreamProcessorSharedBuild: concurrent first StreamProcessor calls
// on a cold scenario converge its snapshot once and return one shared
// processor; unknown scenarios and servers without Config.Ingest error.
func TestStreamProcessorSharedBuild(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Telemetry: reg, Ingest: true})
	defer s.Close()

	const callers = 8
	procs := make([]*stream.Processor, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			procs[i], errs[i] = s.StreamProcessor(context.Background(), "fig2")
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range procs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if procs[i] == nil || procs[i] != procs[0] {
			t.Fatalf("caller %d got processor %p, caller 0 got %p; want one shared processor", i, procs[i], procs[0])
		}
	}
	if got := reg.Snapshot().Counters["server.cold_converges"]; got != 1 {
		t.Fatalf("cold_converges = %d, want 1", got)
	}
	if again, err := s.StreamProcessor(context.Background(), "fig2"); err != nil || again != procs[0] {
		t.Fatalf("warm StreamProcessor = %p, %v; want the shared processor %p", again, err, procs[0])
	}

	if _, err := s.StreamProcessor(context.Background(), "nope"); err == nil {
		t.Fatal("StreamProcessor on an unknown scenario should error")
	}
	plain := New(Config{Telemetry: telemetry.New()})
	defer plain.Close()
	if _, err := plain.StreamProcessor(context.Background(), "fig2"); err == nil {
		t.Fatal("StreamProcessor without Config.Ingest should error")
	}
}
