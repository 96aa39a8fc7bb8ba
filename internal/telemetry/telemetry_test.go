package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter is not get-or-create")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	h := r.Histogram("h", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1022 {
		t.Fatalf("histogram count=%d sum=%d", h.Count(), h.Sum())
	}
	s := r.Snapshot()
	hs := s.Histograms["h"]
	want := []Bucket{{10, 2}, {100, 1}, {math.MaxInt64, 1}}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", hs.Buckets)
	}
	for i, b := range want {
		if hs.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, hs.Buckets[i], b)
		}
	}
	if s.Counters["c"] != 5 || s.Gauges["g"] != 5 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestNilHandlesAreNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", DurationBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(9)
	r.Derive("x", func(Snapshot) float64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Derived) != 0 {
		t.Fatalf("nil registry snapshot = %+v", s)
	}

	var tr *Trace
	end := tr.StartSpan("phase")
	end()
	if tr.Spans() != nil {
		t.Fatal("nil trace must record nothing")
	}
}

func TestDerivedMetrics(t *testing.T) {
	r := New()
	r.Counter("hits").Add(3)
	r.Counter("misses").Add(1)
	r.Derive("hit_ratio", func(s Snapshot) float64 {
		return Ratio(s.Counters["hits"], s.Counters["misses"])
	})
	// Re-registering must replace, not duplicate.
	r.Derive("hit_ratio", func(s Snapshot) float64 {
		return Ratio(s.Counters["hits"], s.Counters["misses"])
	})
	s := r.Snapshot()
	if got := s.Derived["hit_ratio"]; got != 0.75 {
		t.Fatalf("hit_ratio = %v, want 0.75", got)
	}
	if Ratio(0, 0) != 0 {
		t.Fatal("Ratio(0,0) must be 0")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared").Inc()
				r.Histogram("lat", DurationBuckets).Observe(int64(i))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*500 {
		t.Fatalf("shared = %d, want %d", got, 8*500)
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	end := tr.StartSpan("build")
	time.Sleep(time.Millisecond)
	end()
	endIter := tr.StartIteration("iter", 2)
	endIter()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Name != "build" || spans[0].Duration <= 0 {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Name != "iter" || spans[1].Iteration != 2 {
		t.Fatalf("span 1 = %+v", spans[1])
	}
	if spans[1].Start < spans[0].Start {
		t.Fatal("span starts must be monotonic offsets")
	}
}

func TestDebugServer(t *testing.T) {
	r := New()
	r.Counter("igp.spf_cache_hits").Add(9)
	r.Derive("igp.spf_cache_hit_ratio", func(s Snapshot) float64 { return 0.9 })
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	body := get("/debug/vars")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	var snap Snapshot
	if err := json.Unmarshal(vars["netdiag"], &snap); err != nil {
		t.Fatalf("netdiag var: %v", err)
	}
	if snap.Counters["igp.spf_cache_hits"] != 9 {
		t.Fatalf("snapshot over HTTP = %+v", snap)
	}
	if snap.Derived["igp.spf_cache_hit_ratio"] != 0.9 {
		t.Fatalf("derived over HTTP = %+v", snap.Derived)
	}

	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("pprof index missing profiles:\n%s", idx)
	}

	// Republishing under the same name must not panic and must take over.
	r2 := New()
	r2.Counter("fresh").Inc()
	r2.PublishExpvar("netdiag")
	body = get("/debug/vars")
	if !strings.Contains(body, "fresh") {
		t.Fatal("republished registry not served")
	}
}
