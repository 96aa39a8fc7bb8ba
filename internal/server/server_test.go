package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netdiag/internal/core"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// post runs one POST /v1/diagnose against the handler and returns the
// recorded response.
func post(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/diagnose", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHealthReadyScenarios(t *testing.T) {
	s := New(Config{Telemetry: telemetry.New()})
	defer s.Close()

	if w := get(t, s.Handler(), "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", w.Code)
	}
	if w := get(t, s.Handler(), "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before warm-up = %d, want 503", w.Code)
	}
	if err := s.WarmAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := get(t, s.Handler(), "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz after warm-up = %d, want 200", w.Code)
	}

	w := get(t, s.Handler(), "/v1/scenarios")
	if w.Code != http.StatusOK {
		t.Fatalf("scenarios = %d, want 200", w.Code)
	}
	var infos []ScenarioInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "fig1" || infos[1].Name != "fig2" {
		t.Fatalf("scenario listing = %+v, want sorted [fig1 fig2]", infos)
	}
	for _, in := range infos {
		if !in.Warm {
			t.Fatalf("scenario %s not warm after WarmAll", in.Name)
		}
		if in.Sensors != 3 {
			t.Fatalf("scenario %s sensors = %d, want 3", in.Name, in.Sensors)
		}
	}
	// The listing must be byte-deterministic (sorted names, stable JSON).
	if w2 := get(t, s.Handler(), "/v1/scenarios"); !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("scenario listing bytes differ between identical requests")
	}
}

// TestDiagnoseByteIdentity pins the service's determinism contract: the
// response for a given (scenario, failure set, algorithm) is byte-
// identical at any parallelism, with telemetry on or off, and across
// freshly converged servers.
func TestDiagnoseByteIdentity(t *testing.T) {
	type cfg struct {
		par  int
		tele *telemetry.Registry
	}
	cfgs := []cfg{{1, nil}, {1, telemetry.New()}, {4, nil}, {4, telemetry.New()}}
	algos := []string{"tomo", "nd-edge", "nd-bgpigp", "nd-lg"}

	golden := map[string][]byte{}
	for i, c := range cfgs {
		s := New(Config{Parallelism: c.par, Telemetry: c.tele})
		for _, algo := range algos {
			body := fmt.Sprintf(`{"scenario":"fig2","algorithm":%q,"fail_links":[["b1","b2"]]}`, algo)
			w := post(t, s.Handler(), body)
			if w.Code != http.StatusOK {
				t.Fatalf("cfg %d algo %s: status %d: %s", i, algo, w.Code, w.Body.String())
			}
			var res core.WireResult
			if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
				t.Fatalf("cfg %d algo %s: invalid wire JSON: %v", i, algo, err)
			}
			if res.Algorithm != algo {
				t.Fatalf("cfg %d: wire algorithm %q, want %q", i, res.Algorithm, algo)
			}
			if len(res.Hypothesis) == 0 {
				t.Fatalf("cfg %d algo %s: empty hypothesis for a real failure", i, algo)
			}
			if g, ok := golden[algo]; !ok {
				golden[algo] = w.Body.Bytes()
			} else if !bytes.Equal(g, w.Body.Bytes()) {
				t.Fatalf("algo %s: response bytes differ between configs\n%s\nvs\n%s",
					algo, g, w.Body.Bytes())
			}
		}
		s.Close()
	}
}

// TestWarmRequestsReuseSnapshot pins the warm-snapshot contract: one cold
// convergence, every later request a warm hit — and equal bytes.
func TestWarmRequestsReuseSnapshot(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Telemetry: reg})
	defer s.Close()
	body := `{"scenario":"fig2","algorithm":"nd-edge","fail_links":[["b1","b2"]]}`
	first := post(t, s.Handler(), body)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d: %s", first.Code, first.Body.String())
	}
	for i := 0; i < 3; i++ {
		w := post(t, s.Handler(), body)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("request %d: status %d or bytes differ from first", i, w.Code)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["server.cold_converges"] != 1 {
		t.Fatalf("cold_converges = %d, want 1", snap.Counters["server.cold_converges"])
	}
	if snap.Counters["server.warm_hits"] != 3 {
		t.Fatalf("warm_hits = %d, want 3", snap.Counters["server.warm_hits"])
	}
}

// TestDiagnoseUsesIncrementalReconvergence pins the served warm path end to
// end: a diagnosis forks the scenario's converged snapshot, so its
// reconvergence must ride the delta-driven incremental path (not a cold
// recompute) and record the dirty-set pruning telemetry.
func TestDiagnoseUsesIncrementalReconvergence(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Telemetry: reg})
	defer s.Close()
	body := `{"scenario":"fig2","algorithm":"nd-edge","fail_links":[["b1","b2"]]}`
	w := post(t, s.Handler(), body)
	if w.Code != http.StatusOK {
		t.Fatalf("diagnose: %d: %s", w.Code, w.Body.String())
	}
	snap := reg.Snapshot()
	if snap.Counters["netsim.reconverges_incremental"] == 0 {
		t.Fatal("served diagnosis did not use incremental reconvergence")
	}
	if snap.Counters["bgp.prefixes_dirty"] == 0 {
		t.Fatal("incremental reconvergence recorded no dirty prefixes for a real failure")
	}
}

// waitCounter polls a telemetry counter until it reaches want.
func waitCounter(t testing.TB, reg *telemetry.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Counters[name] >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d (now %d)", name, want, reg.Snapshot().Counters[name])
}

// TestDiagnoseCoalesces holds the single worker busy and fires identical
// requests: exactly one computation runs and every client gets the same
// bytes, asserted through the coalesce counters.
func TestDiagnoseCoalesces(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Workers: 1, QueueDepth: 4, Telemetry: reg})
	defer s.Close()
	if err := s.WarmAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testJobStart = func() {
		started <- struct{}{}
		<-gate
	}
	body := `{"scenario":"fig2","algorithm":"tomo","fail_links":[["b1","b2"]]}`
	// The same failure set written differently must coalesce too.
	alias := `{"scenario":"fig2","fail_links":[["b2","b1"],["b1","b2"]]}`

	var wg sync.WaitGroup
	results := make([]*httptest.ResponseRecorder, 3)
	for i, b := range []string{body, body, alias} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = post(t, s.Handler(), b)
		}()
		if i == 0 {
			<-started // leader's job is executing before followers arrive
		}
	}
	waitCounter(t, reg, "server.coalesce_hits", 2)
	close(gate)
	wg.Wait()

	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if !bytes.Equal(w.Body.Bytes(), results[0].Body.Bytes()) {
			t.Fatalf("request %d: coalesced bytes differ", i)
		}
	}
	// Queue.worker counts the job only after it returns, which can be
	// after the responses arrived.
	waitCounter(t, reg, "pool.queue_executed", 1)
	snap := reg.Snapshot()
	if snap.Counters["server.coalesce_misses"] != 1 || snap.Counters["server.coalesce_hits"] != 2 {
		t.Fatalf("coalesce counters = misses %d hits %d, want 1/2",
			snap.Counters["server.coalesce_misses"], snap.Counters["server.coalesce_hits"])
	}
	if r := snap.Derived["server.coalesce_hit_ratio"]; r < 0.66 || r > 0.67 {
		t.Fatalf("coalesce_hit_ratio = %v, want 2/3", r)
	}
	if snap.Counters["pool.queue_executed"] != 1 {
		t.Fatalf("queue executed %d jobs for 3 identical requests, want 1",
			snap.Counters["pool.queue_executed"])
	}
}

// TestDiagnoseSheds429 fills the single worker and the single queue slot,
// then asserts the next (distinct) request is shed with 429 + Retry-After.
func TestDiagnoseSheds429(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Workers: 1, QueueDepth: 1, Telemetry: reg})
	defer s.Close()
	if err := s.WarmAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testJobStart = func() {
		started <- struct{}{}
		<-gate
	}

	var wg sync.WaitGroup
	reqA := `{"scenario":"fig2","fail_links":[["b1","b2"]]}`
	reqB := `{"scenario":"fig2","fail_links":[["c1","c2"]]}`
	reqC := `{"scenario":"fig2","fail_routers":["y1"]}`
	codes := make([]int, 2)
	wg.Add(1)
	go func() { defer wg.Done(); codes[0] = post(t, s.Handler(), reqA).Code }()
	<-started // worker now busy with A; queue slot empty
	wg.Add(1)
	go func() { defer wg.Done(); codes[1] = post(t, s.Handler(), reqB).Code }()
	waitCounter(t, reg, "pool.queue_submitted", 2) // B occupies the only slot

	w := post(t, s.Handler(), reqC)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request = %d, want 429: %s", w.Code, w.Body.String())
	}
	if ra := w.Result().Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	snap := reg.Snapshot()
	if snap.Counters["server.requests_shed"] != 1 || snap.Counters["pool.queue_shed"] != 1 {
		t.Fatalf("shed counters = server %d queue %d, want 1/1",
			snap.Counters["server.requests_shed"], snap.Counters["pool.queue_shed"])
	}

	close(gate)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("accepted request %d finished with %d, want 200", i, c)
		}
	}
}

func TestDiagnoseErrors(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	cases := []struct {
		name, body string
		want       int
		wantCode   string
	}{
		{"unknown scenario", `{"scenario":"nope"}`, http.StatusNotFound, "not_found"},
		{"unknown algorithm", `{"scenario":"fig2","algorithm":"magic"}`, http.StatusBadRequest, "bad_request"},
		{"bad json", `{"scenario":`, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"scenario":"fig2","frobnicate":1}`, http.StatusBadRequest, "bad_request"},
		{"unknown router", `{"scenario":"fig2","fail_routers":["zz9"]}`, http.StatusBadRequest, "bad_request"},
		{"no such link", `{"scenario":"fig2","fail_links":[["s1","s2"]]}`, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		w := post(t, s.Handler(), c.body)
		if w.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.want, w.Body.String())
		}
		var e struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error.Message == "" {
			t.Errorf("%s: error body %q not the v1 envelope", c.name, w.Body.String())
		}
		if e.Error.Code != c.wantCode {
			t.Errorf("%s: error code %q, want %q", c.name, e.Error.Code, c.wantCode)
		}
	}
	// Wrong method on a registered pattern.
	req := httptest.NewRequest(http.MethodGet, "/v1/diagnose", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/diagnose = %d, want 405", w.Code)
	}
}

func mustRouter(t *testing.T, snap *Snapshot, name string) topology.RouterID {
	t.Helper()
	r, ok := snap.Router(name)
	if !ok {
		t.Fatalf("router %q not found", name)
	}
	return r
}
