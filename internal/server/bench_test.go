package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"netdiag/internal/telemetry"
)

const benchBody = `{"scenario":"fig2","algorithm":"nd-edge","fail_links":[["b1","b2"]]}`

func benchPost(h http.Handler) int {
	req := httptest.NewRequest(http.MethodPost, "/v1/diagnose", strings.NewReader(benchBody))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code
}

// BenchmarkServerDiagnoseCold measures a request against a freshly built
// server: the price includes the scenario's BGP/SPF convergence. The
// warm/cold pair is what BENCH_pipeline.json's "server" section reports.
func BenchmarkServerDiagnoseCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(Config{})
		if code := benchPost(s.Handler()); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
		s.Close()
	}
}

// BenchmarkServerDiagnoseWarm measures a request served off the warm
// snapshot: only the fork's reconvergence, meshing and diagnosis remain.
func BenchmarkServerDiagnoseWarm(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	if err := s.WarmAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	if code := benchPost(s.Handler()); code != http.StatusOK {
		b.Fatalf("status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchPost(s.Handler()); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServerCoalesce fires a fan-out of identical concurrent
// requests per iteration at a single worker and reports the realized
// coalesce hit ratio as a custom metric (picked up by cmd/benchjson).
// The leader's computation is held on the test hook until the whole
// fan-out has attached, so the overlap — and therefore the ratio — is
// deterministic rather than at the mercy of goroutine scheduling.
func BenchmarkServerCoalesce(b *testing.B) {
	reg := telemetry.New()
	s := New(Config{Workers: 1, QueueDepth: 64, Telemetry: reg})
	defer s.Close()
	if err := s.WarmAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	const fanout = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gate := make(chan struct{})
		started := make(chan struct{}, 1)
		s.testJobStart = func() {
			select {
			case started <- struct{}{}:
				<-gate
			default:
			}
		}
		var wg sync.WaitGroup
		post := func() {
			defer wg.Done()
			if code := benchPost(s.Handler()); code != http.StatusOK {
				b.Errorf("status %d", code)
			}
		}
		wg.Add(1)
		go post()
		<-started
		for j := 1; j < fanout; j++ {
			wg.Add(1)
			go post()
		}
		waitCounter(b, reg, "server.coalesce_hits", int64(i+1)*(fanout-1))
		close(gate)
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(reg.Snapshot().Derived["server.coalesce_hit_ratio"], "coalesce-hit-ratio")
}
