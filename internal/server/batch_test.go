package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"netdiag/internal/telemetry"
)

// postBatch runs one POST /v1/diagnose/batch against the handler.
func postBatch(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/diagnose/batch", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestBatchMatchesSequential pins the batch contract: every slot carries
// the status and the exact bytes the single endpoint answers for the same
// failure set — including an invalid item, which fills its slot with the
// single endpoint's error envelope instead of failing the batch.
func TestBatchMatchesSequential(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Telemetry: reg})
	defer s.Close()
	if err := s.WarmAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	items := []string{
		`{"fail_links":[["b1","b2"]]}`,
		`{"fail_routers":["y1"]}`,
		`{"fail_routers":["zz9"]}`, // invalid: error slot, not batch failure
		`{"fail_links":[["x2","y1"]]}`,
	}
	body := fmt.Sprintf(`{"scenario":"fig2","algorithm":"nd-bgpigp","items":[%s]}`, strings.Join(items, ","))
	w := postBatch(t, s.Handler(), body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d, want 200: %s", w.Code, w.Body.String())
	}

	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	if resp.Scenario != "fig2" {
		t.Errorf("scenario = %q, want fig2", resp.Scenario)
	}
	if len(resp.Results) != len(items) {
		t.Fatalf("got %d results for %d items", len(resp.Results), len(items))
	}
	for i, item := range items {
		single := post(t, s.Handler(),
			fmt.Sprintf(`{"scenario":"fig2","algorithm":"nd-bgpigp",%s}`, strings.TrimPrefix(strings.TrimSuffix(item, "}"), "{")))
		slot := resp.Results[i]
		if slot.Status != single.Code {
			t.Errorf("item %d: slot status %d, single endpoint %d", i, slot.Status, single.Code)
		}
		want := single.Body.Bytes()
		got := append([]byte(nil), slot.Body...)
		got = append(got, '\n')
		if string(got) != string(want) {
			t.Errorf("item %d: slot bytes differ from single response\nslot:   %s\nsingle: %s", i, got, want)
		}
	}
	// The whole batch costs one queued job; each distinct single request
	// (the invalid one included — it fails inside its job) costs its own.
	// Queue.worker counts a job only after it returns, which can be after
	// its response arrived: wait for the count, then assert it exactly.
	waitCounter(t, reg, "pool.queue_executed", 1+4)
	if got := reg.Snapshot().Counters["pool.queue_executed"]; got != 1+4 {
		t.Errorf("queue executed %d jobs, want 5 (1 batch + 4 singles)", got)
	}
}

// TestBatchRepeatedItemsShareBaseline runs concurrent batches of repeated
// items on one snapshot. Every item's measurements share the snapshot's
// adapted T− paths read-only, so under -race this is the data-race audit
// of that sharing; every slot must still carry the single endpoint's
// bytes.
func TestBatchRepeatedItemsShareBaseline(t *testing.T) {
	s := New(Config{Workers: 4, Parallelism: 2})
	defer s.Close()
	if err := s.WarmAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	items := []string{`{"fail_links":[["b1","b2"]]}`, `{"fail_links":[["y3","y4"]]}`}
	golden := make([]string, len(items))
	for i, item := range items {
		w := post(t, s.Handler(),
			fmt.Sprintf(`{"scenario":"fig2","algorithm":"nd-edge",%s}`, strings.TrimPrefix(item, "{")))
		if w.Code != http.StatusOK {
			t.Fatalf("single %d: %d: %s", i, w.Code, w.Body.String())
		}
		golden[i] = strings.TrimSuffix(w.Body.String(), "\n")
	}

	// Batch g repeats the items g+2 times, so no two batches coalesce.
	const batches = 4
	errs := make(chan error, batches)
	var wg sync.WaitGroup
	for g := 0; g < batches; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var list []string
			for r := 0; r < g+2; r++ {
				list = append(list, items...)
			}
			w := postBatch(t, s.Handler(),
				fmt.Sprintf(`{"scenario":"fig2","algorithm":"nd-edge","items":[%s]}`, strings.Join(list, ",")))
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("batch %d: %d: %s", g, w.Code, w.Body.String())
				return
			}
			var resp BatchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				errs <- fmt.Errorf("batch %d: decoding: %v", g, err)
				return
			}
			if len(resp.Results) != len(list) {
				errs <- fmt.Errorf("batch %d: %d results for %d items", g, len(resp.Results), len(list))
				return
			}
			for k, slot := range resp.Results {
				if slot.Status != http.StatusOK || string(slot.Body) != golden[k%len(items)] {
					errs <- fmt.Errorf("batch %d slot %d: status %d, bytes differ from the single response", g, k, slot.Status)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBatchRequestValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	cases := []struct {
		name, body string
		want       int
		wantCode   string
	}{
		{"no items", `{"scenario":"fig2","items":[]}`, http.StatusBadRequest, "bad_request"},
		{"missing items", `{"scenario":"fig2"}`, http.StatusBadRequest, "bad_request"},
		{"unknown scenario", `{"scenario":"nope","items":[{}]}`, http.StatusNotFound, "not_found"},
		{"bad algorithm", `{"scenario":"fig2","algorithm":"magic","items":[{}]}`, http.StatusBadRequest, "bad_request"},
		{"bad json", `{"scenario":`, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		w := postBatch(t, s.Handler(), c.body)
		if w.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.want, w.Body.String())
		}
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error.Code != c.wantCode {
			t.Errorf("%s: error code %q (body %q), want %q", c.name, e.Error.Code, w.Body.String(), c.wantCode)
		}
	}

	over := make([]string, maxBatchItems+1)
	for i := range over {
		over[i] = "{}"
	}
	w := postBatch(t, s.Handler(), fmt.Sprintf(`{"scenario":"fig2","items":[%s]}`, strings.Join(over, ",")))
	if w.Code != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", w.Code)
	}
}

// TestRetryAfterEnvelope pins the unified retry contract: both shed (429)
// and draining (503) responses carry a Retry-After header and the matching
// retry_after_s field inside the envelope, on the single and batch
// endpoints alike.
func TestRetryAfterEnvelope(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.draining.Store(true)

	for _, post := range []func(*testing.T, http.Handler, string) *httptest.ResponseRecorder{post, postBatch} {
		w := post(t, s.Handler(), `{"scenario":"fig2","items":[{}]}`)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("draining status = %d, want 503", w.Code)
		}
		if ra := w.Result().Header.Get("Retry-After"); ra != "1" {
			t.Errorf("draining Retry-After = %q, want \"1\"", ra)
		}
		var e struct {
			Error struct {
				Code        string `json:"code"`
				RetryAfterS int    `json:"retry_after_s"`
			} `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("decoding envelope: %v (%s)", err, w.Body.String())
		}
		if e.Error.Code != "draining" || e.Error.RetryAfterS != 1 {
			t.Errorf("draining envelope = %+v, want code draining, retry_after_s 1", e.Error)
		}
	}
}
