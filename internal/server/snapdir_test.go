package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"netdiag/internal/telemetry"
)

// TestSnapshotDirRoundTrip pins the persistence contract: the first
// worker converges cold and saves one snapshot file per scenario; a
// second worker over the same directory loads them instead of
// converging, and answers every algorithm, a batch and the committed
// stream feed with the same bytes.
func TestSnapshotDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	type call struct {
		post func(*testing.T, http.Handler, string) *httptest.ResponseRecorder
		body string
	}
	var calls []call
	for _, algo := range []string{"tomo", "nd-edge", "nd-bgpigp", "nd-lg"} {
		calls = append(calls, call{post, fmt.Sprintf(
			`{"scenario":"fig2","algorithm":%q,"fail_links":[["b1","b2"]]}`, algo)})
	}
	calls = append(calls, call{postBatch, `{"scenario":"fig2","algorithm":"nd-lg","items":[` +
		`{"fail_links":[["b1","b2"]]},{"fail_links":[["y3","y4"]],"fail_routers":["x2"]},` +
		`{"fail_routers":["nope"]},{"fail_links":[["b1","b2"]]}]}`})
	// serve answers every call and the stream feed on one worker.
	serve := func(s *Server) ([]*httptest.ResponseRecorder, []byte) {
		if err := s.WarmAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		var got []*httptest.ResponseRecorder
		for _, c := range calls {
			w := c.post(t, s.Handler(), c.body)
			if w.Code != http.StatusOK {
				t.Fatalf("%s = %d: %s", c.body, w.Code, w.Body.String())
			}
			got = append(got, w)
		}
		return got, replayStreamFeed(t, s.Handler(), 1, false)
	}

	cold := telemetry.New()
	s1 := New(Config{SnapshotDir: dir, Telemetry: cold, Ingest: true})
	defer s1.Close()
	want, wantEvents := serve(s1)
	cs := cold.Snapshot()
	if cs.Counters["server.snapshot_saves"] != 2 || cs.Counters["server.snapshot_loads"] != 0 {
		t.Fatalf("cold worker saves/loads = %d/%d, want 2/0",
			cs.Counters["server.snapshot_saves"], cs.Counters["server.snapshot_loads"])
	}
	for _, name := range []string{"fig1", "fig2"} {
		if _, err := os.Stat(filepath.Join(dir, name+".ndsn")); err != nil {
			t.Fatalf("missing persisted snapshot: %v", err)
		}
	}

	warm := telemetry.New()
	s2 := New(Config{SnapshotDir: dir, Telemetry: warm, Ingest: true})
	defer s2.Close()
	got, gotEvents := serve(s2)
	for i, c := range calls {
		if got[i].Body.String() != want[i].Body.String() {
			t.Errorf("%s: snapshot-loaded body %q, cold %q", c.body, got[i].Body.String(), want[i].Body.String())
		}
	}
	if !bytes.Equal(gotEvents, wantEvents) {
		t.Errorf("snapshot-loaded /v1/events diverged:\n--- cold ---\n%s\n--- loaded ---\n%s", wantEvents, gotEvents)
	}
	ws := warm.Snapshot()
	if ws.Counters["server.snapshot_loads"] != 2 || ws.Counters["server.snapshot_saves"] != 0 {
		t.Errorf("loaded worker loads/saves = %d/%d, want 2/0",
			ws.Counters["server.snapshot_loads"], ws.Counters["server.snapshot_saves"])
	}
	if ws.Counters["server.cold_converges"] != 2 {
		// Get still counts a "cold" store miss per scenario; the load is
		// what makes it cheap. Pin that so the counter keeps meaning
		// "store entry built", not "full convergence".
		t.Errorf("loaded worker cold_converges = %d, want 2", ws.Counters["server.cold_converges"])
	}
}

// TestSnapshotDirCorruptFallsBack pins the safety contract: any decode
// failure (here a flipped byte breaking the digest) silently falls back
// to cold convergence and rewrites a good snapshot.
func TestSnapshotDirCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{SnapshotDir: dir})
	defer s1.Close()
	if err := s1.WarmAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "fig2.ndsn")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	tele := telemetry.New()
	s2 := New(Config{SnapshotDir: dir, Telemetry: tele})
	defer s2.Close()
	if err := s2.WarmAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := post(t, s2.Handler(), `{"scenario":"fig2","fail_links":[["b1","b2"]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("diagnose after corrupt snapshot = %d: %s", w.Code, w.Body.String())
	}
	snap := tele.Snapshot()
	if snap.Counters["server.snapshot_loads"] != 1 { // fig1 loads, fig2 falls back
		t.Errorf("loads = %d, want 1 (fig1 only)", snap.Counters["server.snapshot_loads"])
	}
	if snap.Counters["server.snapshot_saves"] != 1 { // fig2 re-persisted
		t.Errorf("saves = %d, want 1 (fig2 rewritten)", snap.Counters["server.snapshot_saves"])
	}
	if fresh, err := os.ReadFile(path); err != nil || string(fresh) == string(data) {
		t.Errorf("corrupt snapshot was not rewritten (err %v)", err)
	}
}
