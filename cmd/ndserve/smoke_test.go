package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
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

// TestSmokeWatch is the end-to-end monitoring check behind `make smoke`:
// the real binary runs the -watch loop on fig2 every 50ms, measuring the
// mesh directly and, under -ingest, reading the streaming overlay. Each
// mode must observe at least three rounds (monitor_rounds_observed on
// /metrics) and then drain cleanly on SIGTERM.
func TestSmokeWatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the ndserve binary")
	}
	bin := buildNdserve(t)
	for _, mode := range []struct {
		name  string
		extra []string
	}{
		{"mesh", nil},
		{"ingest", []string{"-ingest"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:0", "-scenarios", "fig2",
				"-watch", "fig2", "-watch-interval", "50ms"}, mode.extra...)
			cmd, base := startNdserve(t, bin, args...)
			client := &http.Client{Timeout: 5 * time.Second}
			deadline := time.Now().Add(30 * time.Second)
			for {
				rounds, err := roundsObserved(client, base)
				if err == nil && rounds >= 3 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("monitor_rounds_observed never reached 3 (last %d, err %v)", rounds, err)
				}
				time.Sleep(20 * time.Millisecond)
			}
			sigtermClean(t, "ndserve -watch", cmd)
		})
	}
}

// roundsObserved reads the watcher's round counter off /metrics; zero
// until the first round registers it.
func roundsObserved(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "monitor_rounds_observed "); ok {
			return strconv.Atoi(v)
		}
	}
	return 0, sc.Err()
}
