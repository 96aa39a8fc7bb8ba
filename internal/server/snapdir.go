package server

import (
	"os"
	"path/filepath"
	"slices"

	"netdiag/internal/experiment"
	"netdiag/internal/netsim"
	"netdiag/internal/snapshot"
)

// snapshotPath is where one scenario's persisted snapshot lives. The
// scenario name is the filename: registry names (fig1, research-<seed>)
// are already filesystem-safe.
func (s *Store) snapshotPath(name string) string {
	return filepath.Join(s.snapDir, name+".ndsn")
}

// loadSnapshot recovers a scenario from the snapshot directory, or
// returns nil when the store should converge cold: no directory
// configured, no file yet, or anything wrong with the bytes (foreign
// magic, version or topology mismatch, corruption) or with the recorded
// scenario identity. A load failure is never an error — the persisted
// file is purely an accelerator and cold convergence rebuilds the same
// state.
func (s *Store) loadSnapshot(name string, scn *Scenario, opts []netsim.Option) *experiment.Env {
	if s.snapDir == "" {
		return nil
	}
	data, err := os.ReadFile(s.snapshotPath(name))
	if err != nil {
		return nil
	}
	snap, err := snapshot.Decode(data, scn.Topo, opts...)
	if err != nil {
		return nil
	}
	if snap.Scenario != name || !slices.Equal(snap.Sensors, scn.Sensors) {
		return nil
	}
	s.snapLoads.Inc()
	return experiment.WrapEnv(snap.Net, scn.Sensors, snap.Mesh, snap.IP2AS)
}

// persistSnapshot writes a freshly converged scenario into the snapshot
// directory so the next worker can skip convergence. The write is
// tmp-file-plus-rename, so a reader never observes a half-written
// snapshot even with several workers converging concurrently — and
// because every worker converges to identical state, last-rename-wins is
// harmless. Persistence failures are silently dropped: the in-memory
// snapshot this worker just built is unaffected.
func (s *Store) persistSnapshot(name string, env *experiment.Env) {
	if s.snapDir == "" {
		return
	}
	data, err := snapshot.Encode(&snapshot.Snapshot{
		Scenario: name,
		Sensors:  env.Sensors,
		Net:      env.Net,
		Mesh:     env.BeforeMesh,
		IP2AS:    env.IP2AS,
	})
	if err != nil {
		return
	}
	if err := os.MkdirAll(s.snapDir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(s.snapDir, name+".*.tmp")
	if err != nil {
		return
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return
	}
	if err := tmp.Close(); err != nil {
		return
	}
	if err := os.Rename(tmp.Name(), s.snapshotPath(name)); err != nil {
		return
	}
	s.snapSaves.Inc()
}
