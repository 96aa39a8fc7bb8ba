package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"time"

	"netdiag/internal/core"
	"netdiag/internal/telemetry"
)

// ShardIndex assigns a scenario to one of n shards by rendezvous
// (highest-random-weight) hashing: every (scenario, shard) pair gets an
// FNV-64a weight and the scenario belongs to the shard with the highest.
// Unlike modulo hashing, growing the fleet from n to n+1 shards only
// moves the ~1/(n+1) of scenarios whose new shard wins — every other
// scenario keeps its warm snapshot where it is. n <= 1 maps everything
// to shard 0.
func ShardIndex(scenario string, n int) int {
	if n <= 1 {
		return 0
	}
	best, bestW := 0, uint64(0)
	for i := 0; i < n; i++ {
		h := fnv.New64a()
		io.WriteString(h, scenario)
		io.WriteString(h, "|shard|")
		io.WriteString(h, strconv.Itoa(i))
		if w := h.Sum64(); i == 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// FrontConfig parameterizes a Front.
type FrontConfig struct {
	// Backends are the shard workers' base URLs (e.g.
	// "http://127.0.0.1:8081"); index i is shard i of len(Backends). The
	// fleet only routes correctly when every worker was started with the
	// matching -shard-of i/N filter.
	Backends []string
	// Client performs the proxied requests; nil selects a default client.
	Client *http.Client
	// Telemetry receives the "front.*" counters; nil disables them.
	Telemetry *telemetry.Registry
	// Logger receives proxy failure records; nil logs nothing.
	Logger *slog.Logger
	// SlowThreshold promotes requests at least this slow to an extra
	// access-log line with the per-phase span breakdown. Zero disables
	// promotion.
	SlowThreshold time.Duration
	// TraceBuffer sizes the /debug/traces ring. Zero selects 64.
	TraceBuffer int
}

// Front is the fleet's routing tier: a thin, stateless proxy that owns no
// snapshots and runs no diagnoses. It routes each diagnosis to the shard
// that owns its scenario (see ShardIndex), merges the per-shard scenario
// listings, and aggregates readiness. The streaming plane is not
// proxied: sensors feed the worker that owns their scenario.
type Front struct {
	edge
	backends []string
	client   *http.Client
	tele     *telemetry.Registry
	mux      *http.ServeMux

	proxied     *telemetry.Counter
	backendErrs *telemetry.Counter
}

// NewFront builds the routing tier over cfg.Backends. It panics if no
// backends are configured — a front with nothing behind it can serve no
// request at all.
func NewFront(cfg FrontConfig) *Front {
	if len(cfg.Backends) == 0 {
		panic("server: NewFront needs at least one backend")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	f := &Front{
		edge:        newEdge(cfg.Logger, cfg.SlowThreshold, cfg.TraceBuffer),
		backends:    cfg.Backends,
		client:      client,
		tele:        cfg.Telemetry,
		proxied:     cfg.Telemetry.Counter("front.proxied"),
		backendErrs: cfg.Telemetry.Counter("front.backend_errors"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	// The front is an edge too: requests hitting it directly get their
	// trace ID here, and it follows them to the owning shard. The
	// request counter and latency histogram are worker-only.
	mux.Handle("GET /v1/scenarios", f.observe("scenarios", nil, nil, f.handleScenarios))
	mux.Handle("POST /v1/diagnose", f.observe("proxy", nil, nil, f.handleProxy))
	mux.Handle("POST /v1/diagnose/batch", f.observe("proxy", nil, nil, f.handleProxy))
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.Handle("GET /debug/traces", f.traces)
	f.mux = mux
	return f
}

// handleMetrics serves the front's Prometheus exposition. Before
// rendering, it probes every shard's /healthz and re-exports the result
// as per-shard gauges — front.shard<i>_up (1/0) and
// front.shard<i>_probe_ns (exposed in seconds) — so one scrape of the
// front tells which shards are reachable and how fast they answer.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if f.tele != nil {
		for i, base := range f.backends {
			t0 := telemetry.Now()
			status, _, err := f.get(r, base, "/healthz")
			up := int64(0)
			if err == nil && status == http.StatusOK {
				up = 1
			}
			f.tele.Gauge(fmt.Sprintf("front.shard%d_up", i)).Set(up)
			f.tele.Gauge(fmt.Sprintf("front.shard%d_probe_ns", i)).Set(telemetry.Since(t0).Nanoseconds())
		}
	}
	telemetry.PromHandler(f.tele).ServeHTTP(w, r)
}

// Handler returns the front's HTTP API: the worker's diagnosis and
// scenario endpoints over the whole fleet. The streaming plane
// (/v1/ingest/*, /v1/events) is worker-only.
func (f *Front) Handler() http.Handler { return f.mux }

// handleReadyz aggregates shard readiness: the fleet is ready only when
// every shard answers /readyz with 200. The body names the first shard
// that is not, so an operator can tell a warming fleet from a dead one.
func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for i, base := range f.backends {
		status, body, err := f.get(r, base, "/readyz")
		if err != nil {
			//ndlint:ignore envelope /readyz is a plain-text probe endpoint for load balancers, not part of the v1 JSON surface; the envelope seam does not apply
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "shard %d: unreachable: %v\n", i, err)
			return
		}
		if status != http.StatusOK {
			//ndlint:ignore envelope /readyz is a plain-text probe endpoint for load balancers, not part of the v1 JSON surface; the envelope seam does not apply
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "shard %d: %s", i, body)
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

// handleScenarios merges the shard listings into one, sorted by name —
// the union a single unsharded worker would have served.
func (f *Front) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var infos []ScenarioInfo
	for i, base := range f.backends {
		status, body, err := f.get(r, base, "/v1/scenarios")
		if err != nil {
			f.backendError(w, r, i, err)
			return
		}
		if status != http.StatusOK {
			f.backendError(w, r, i, fmt.Errorf("scenario listing answered %d", status))
			return
		}
		var part []ScenarioInfo
		if err := json.Unmarshal(body, &part); err != nil {
			f.backendError(w, r, i, fmt.Errorf("bad scenario listing: %w", err))
			return
		}
		infos = append(infos, part...)
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].Name < infos[b].Name })
	writeJSON(w, f.log, "merged scenario listing", infos)
}

// handleProxy forwards a diagnosis (single or batch — the two bodies
// agree on the scenario field) to the shard that owns its scenario, and
// relays the shard's exact status, retry signal and body. The front adds
// no interpretation of its own: a shed (429) or draining (503) from the
// worker passes through with its Retry-After intact, so the client's
// backoff contract is the same with or without the routing tier.
func (f *Front) handleProxy(w http.ResponseWriter, r *http.Request) {
	f.proxied.Inc()
	acc := accessFrom(r.Context())
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, core.ErrBadRequest, "reading request body: "+err.Error())
		return
	}
	var sniff struct {
		Scenario string `json:"scenario"`
	}
	if err := json.Unmarshal(body, &sniff); err != nil {
		writeError(w, http.StatusBadRequest, core.ErrBadRequest, "invalid request body: "+err.Error())
		return
	}
	acc.scenario = sniff.Scenario
	shard := ShardIndex(sniff.Scenario, len(f.backends))
	acc.shard = f.backends[shard]
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		f.backends[shard]+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, core.ErrInternal, err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/json")
	// The same trace ID follows the request to the owning shard, so the
	// front's and the worker's spans stitch into one trace.
	req.Header.Set(core.TraceHeader, acc.id)
	endBackend := acc.tr.StartSpan("proxy_backend")
	resp, err := f.client.Do(req)
	endBackend()
	if err != nil {
		f.backendError(w, r, shard, err)
		return
	}
	defer resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil && f.log != nil {
		f.log.Warn("relaying shard response", "shard", shard, "err", err)
	}
}

// get performs one backend GET under the incoming request's context and
// returns the status and full body.
func (f *Front) get(r *http.Request, base, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// backendError reports a shard the front could not use: 502 with the
// bad_gateway envelope naming the shard — carrying retry_after_s and the
// matching Retry-After header, since a lone unreachable worker is
// usually restarting. The failure log and the request's access line both
// name the failing shard's backend URL.
func (f *Front) backendError(w http.ResponseWriter, r *http.Request, shard int, err error) {
	f.backendErrs.Inc()
	base := f.backends[shard]
	acc := accessFrom(r.Context())
	acc.shard = base
	if f.log != nil {
		f.log.Warn("shard backend failed",
			"shard", shard, "backend", base, "trace", acc.id, "err", err)
	}
	writeError(w, http.StatusBadGateway, core.ErrBadGateway,
		fmt.Sprintf("shard %d: %v", shard, err))
}
