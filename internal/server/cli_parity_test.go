package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"netdiag/internal/experiment"
	"netdiag/internal/scenario"
)

// TestCLIParity pins the acceptance contract that a served diagnosis is
// byte-identical to the equivalent one-shot CLI run: it exports the same
// fork's measurements as a scenario file, runs the built netdiagnoser
// binary with -json on it, and diffs the stdout against the HTTP
// response for every algorithm the file format carries.
func TestCLIParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the netdiagnoser binary")
	}
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	snap, err := s.store.Get(ctx, "fig2")
	if err != nil {
		t.Fatal(err)
	}

	// Reproduce the request pipeline for fail_links [["b1","b2"]] and
	// export its measurements in the CLI's scenario format.
	fork := snap.Net.Fork()
	link, ok := snap.Scenario.Topo.LinkBetween(mustRouter(t, snap, "b1"), mustRouter(t, snap, "b2"))
	if !ok {
		t.Fatal("fig2 has no b1-b2 link")
	}
	fork.FailLink(link.ID)
	if err := fork.ReconvergeCtx(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := fork.MeshCtx(ctx, snap.Scenario.Sensors)
	if err != nil {
		t.Fatal(err)
	}
	meas := experiment.ToMeasurementsMapped(snap.BeforeMesh, after, snap.IP2AS.Lookup)
	sc := scenario.FromMeasurements(meas, snap.RoutingInfo(fork, snap.Scenario.ASX))

	dir := t.TempDir()
	scnPath := filepath.Join(dir, "fig2-b1b2.json")
	f, err := os.Create(scnPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	bin := filepath.Join(dir, "netdiagnoser")
	build := exec.Command("go", "build", "-o", bin, "./cmd/netdiagnoser")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building netdiagnoser: %v\n%s", err, out)
	}

	for _, algo := range []string{"tomo", "nd-edge", "nd-bgpigp"} {
		cli := exec.Command(bin, "-algo", algo, "-json", scnPath)
		cliOut, err := cli.Output()
		if err != nil {
			t.Fatalf("%s: CLI run failed: %v", algo, err)
		}
		body := fmt.Sprintf(`{"scenario":"fig2","algorithm":%q,"fail_links":[["b1","b2"]]}`, algo)
		w := post(t, s.Handler(), body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: server status %d: %s", algo, w.Code, w.Body.String())
		}
		if !bytes.Equal(cliOut, w.Body.Bytes()) {
			t.Errorf("%s: CLI and server bytes differ\nCLI:\n%s\nserver:\n%s",
				algo, cliOut, w.Body.Bytes())
		}
	}
}
