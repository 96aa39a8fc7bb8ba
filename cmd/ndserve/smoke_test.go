package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSmoke is the end-to-end service check behind `make smoke`: build
// the real binary, start it on a random port, diagnose over HTTP, then
// shut it down with SIGTERM and require a clean exit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the ndserve binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ndserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ndserve: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-scenarios", "fig1,fig2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no stdout line from ndserve: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected first line %q", line)
	}
	base := "http://" + strings.TrimSpace(line[i+len(marker):])

	client := &http.Client{Timeout: 5 * time.Second}
	waitOK := func(path string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := client.Get(base + path)
			if err == nil {
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never returned 200 (last err %v)", path, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitOK("/healthz")
	waitOK("/readyz")

	resp, err := client.Get(base + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []struct {
		Name string `json:"name"`
		Warm bool   `json:"warm"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scenarios); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(scenarios) != 2 || scenarios[0].Name != "fig1" || scenarios[1].Name != "fig2" {
		t.Fatalf("scenario listing = %+v", scenarios)
	}

	resp, err = client.Post(base+"/v1/diagnose", "application/json",
		strings.NewReader(`{"scenario":"fig2","algorithm":"nd-edge","fail_links":[["b1","b2"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Algorithm  string `json:"algorithm"`
		Hypothesis []any  `json:"hypothesis"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || wire.Algorithm != "nd-edge" || len(wire.Hypothesis) == 0 {
		t.Fatalf("diagnose = %d %+v, want 200 with an nd-edge hypothesis", resp.StatusCode, wire)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("ndserve exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ndserve did not exit after SIGTERM")
	}
}

// buildNdserve compiles the real binary once per test into a temp dir.
func buildNdserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ndserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ndserve: %v\n%s", err, out)
	}
	return bin
}

// startNdserve launches the binary with args, parses the listen marker
// off stdout and returns the process plus its base URL. The process is
// killed at cleanup if the test did not already shut it down.
func startNdserve(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no stdout line from ndserve %v: %v", args, sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected first line %q", line)
	}
	return cmd, "http://" + strings.TrimSpace(line[i+len(marker):])
}

// sigtermClean sends SIGTERM and requires a clean exit.
func sigtermClean(t *testing.T, name string, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("%s exited uncleanly after SIGTERM: %v", name, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit after SIGTERM", name)
	}
}

// TestSmokeFleet is the end-to-end fleet check behind `make smoke`: two
// shard workers splitting fig1+fig2 by rendezvous hash and sharing a
// snapshot directory, one front routing over them; a batch diagnosis
// goes through the proxy to the owning shard, and the whole fleet drains
// cleanly on SIGTERM.
func TestSmokeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the ndserve binary")
	}
	bin := buildNdserve(t)
	snapDir := filepath.Join(t.TempDir(), "snapshots")

	var workers [2]*exec.Cmd
	var backends [2]string
	for i := range workers {
		workers[i], backends[i] = startNdserve(t, bin,
			"-addr", "127.0.0.1:0", "-scenarios", "fig1,fig2",
			"-shard-of", fmt.Sprintf("%d/2", i), "-snapshot-dir", snapDir)
	}
	front, base := startNdserve(t, bin, "-addr", "127.0.0.1:0",
		"-shards", backends[0]+","+backends[1])

	client := &http.Client{Timeout: 5 * time.Second}
	waitOK := func(path string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := client.Get(base + path)
			if err == nil {
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never returned 200 (last err %v)", path, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Fleet readiness aggregates both shards' warm-up.
	waitOK("/healthz")
	waitOK("/readyz")

	resp, err := client.Get(base + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []struct {
		Name string `json:"name"`
		Warm bool   `json:"warm"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scenarios); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(scenarios) != 2 || scenarios[0].Name != "fig1" || scenarios[1].Name != "fig2" ||
		!scenarios[0].Warm || !scenarios[1].Warm {
		t.Fatalf("merged scenario listing = %+v, want warm fig1, fig2", scenarios)
	}

	// One batch through the proxy: routed to whichever shard owns fig2.
	resp, err = client.Post(base+"/v1/diagnose/batch", "application/json",
		strings.NewReader(`{"scenario":"fig2","algorithm":"nd-edge","items":[{"fail_links":[["b1","b2"]]},{"fail_routers":["y1"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Scenario string `json:"scenario"`
		Results  []struct {
			Status int             `json:"status"`
			Body   json.RawMessage `json:"body"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || batch.Scenario != "fig2" || len(batch.Results) != 2 {
		t.Fatalf("batch via front = %d %+v, want 200 with 2 results", resp.StatusCode, batch)
	}
	for i, slot := range batch.Results {
		if slot.Status != http.StatusOK || len(slot.Body) == 0 {
			t.Fatalf("batch slot %d = %d %s, want 200 with a body", i, slot.Status, slot.Body)
		}
	}

	// Workers persisted their snapshots for the next cold start.
	for _, name := range []string{"fig1", "fig2"} {
		if _, err := os.Stat(filepath.Join(snapDir, name+".ndsn")); err != nil {
			t.Errorf("missing persisted snapshot: %v", err)
		}
	}

	sigtermClean(t, "front", front)
	for i, w := range workers {
		sigtermClean(t, fmt.Sprintf("shard %d", i), w)
	}
}

// TestSmokeIngest is the end-to-end streaming check behind `make smoke`:
// the real binary runs with -ingest, two withdrawals and a keepalive
// posted to /v1/ingest/bgp close one event, GET /v1/events lists it as
// diagnosed, and the server drains cleanly on SIGTERM.
func TestSmokeIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the ndserve binary")
	}
	cmd, base := startNdserve(t, buildNdserve(t), "-addr", "127.0.0.1:0", "-ingest", "-scenarios", "fig2")
	client := &http.Client{Timeout: 30 * time.Second}

	// Disconnect s3 (both y3 links); the keepalive moves record time past
	// the idle close, which closes the event and queues its diagnosis.
	feed := `{"ts":1000,"type":"withdrawal","a":"y3","b":"y4"}
{"ts":1200,"type":"withdrawal","a":"y2","b":"y3"}
{"ts":20000,"type":"keepalive"}
`
	resp, err := client.Post(base+"/v1/ingest/bgp?scenario=fig2", "application/x-ndjson", strings.NewReader(feed))
	if err != nil {
		t.Fatal(err)
	}
	var ingested struct{ Accepted, Rejected int }
	err = json.NewDecoder(resp.Body).Decode(&ingested)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || ingested.Accepted != 3 || ingested.Rejected != 0 {
		t.Fatalf("ingest = %d %+v (%v), want 200 with 3 accepted", resp.StatusCode, ingested, err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/v1/events?scenario=fig2")
		if err != nil {
			t.Fatal(err)
		}
		var evs []struct {
			Status     string          `json:"status"`
			Hypothesis json.RawMessage `json:"hypothesis"`
		}
		err = json.NewDecoder(resp.Body).Decode(&evs)
		resp.Body.Close()
		if err != nil || len(evs) != 1 {
			t.Fatalf("events = %+v (%v), want exactly one", evs, err)
		}
		if evs[0].Status == "diagnosed" && len(evs[0].Hypothesis) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("event never diagnosed (status %q)", evs[0].Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	sigtermClean(t, "ndserve -ingest", cmd)
}
