package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"netdiag/internal/core"
	"netdiag/internal/probe"
	"netdiag/internal/stream"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// Record time of one oracle episode, in milliseconds from its start. The
// keepalives land past the server's default 5 s idle close, so every
// event of a phase closes before the next phase's first record applies.
const (
	oracleEpisodeMS    = 100000
	oracleWithdrawalAt = 1000
	oracleProbesAt     = 1100
	oracleAnnounceAt   = 30000
	oracleKeepalives   = 20000 // after the withdrawal; again after the announcement
)

// TestStreamMatchesBatchDiagnosis is the streaming plane's link-failure
// oracle. For up to 10 links of each scenario's healthy mesh, an episode
// generated from a ground-truth fork with that link down (the withdrawal,
// every pair's probe on the fork, a keepalive past idle close, the
// announcement and a closing keepalive) is replayed into one ingest
// server, so its processor withdraws and announces every link. Each listed
// event must carry the hypothesis /v1/diagnose gives under nd-edge for the
// fault set in force when the event closed: the link for the events of a
// withdrawal, no failure for the event of an announcement.
func TestStreamMatchesBatchDiagnosis(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("fig2", Fig2Scenario); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("research-1", ResearchScenario(1, 8)); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Scenarios: reg, Telemetry: telemetry.New(), Ingest: true})
	defer s.Close()
	h := s.Handler()

	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			snap, err := s.store.Get(context.Background(), name)
			if err != nil {
				t.Fatal(err)
			}
			topo := snap.Scenario.Topo
			links := oracleLinks(snap)
			for k, l := range links {
				base := int64(k) * oracleEpisodeMS
				a, b := topo.Router(l.A).Name, topo.Router(l.B).Name
				fork := snap.Net.Fork()
				fork.FailLink(l.ID)
				if err := fork.Reconverge(); err != nil {
					t.Fatal(err)
				}
				ingestLines(t, h, name, "bgp",
					stream.BGPRecord{TS: base + oracleWithdrawalAt, Type: stream.BGPWithdrawal, A: a, B: b})
				var probes []any
				for i, src := range snap.Scenario.Sensors {
					for j, dst := range snap.Scenario.Sensors {
						if i == j {
							continue
						}
						probes = append(probes, probeRecords(fmt.Sprintf("ep%d-%d-%d", k, i, j), base+oracleProbesAt,
							topo.Router(src).Name, topo.Router(dst).Name, fork.Traceroute(src, dst))...)
					}
				}
				ingestLines(t, h, name, "traceroute", probes...)
				ingestLines(t, h, name, "bgp",
					stream.BGPRecord{TS: base + oracleProbesAt + oracleKeepalives, Type: stream.BGPKeepalive},
					stream.BGPRecord{TS: base + oracleAnnounceAt, Type: stream.BGPAnnouncement, A: a, B: b},
					stream.BGPRecord{TS: base + oracleAnnounceAt + oracleKeepalives, Type: stream.BGPKeepalive})
			}

			var evs []core.WireEvent
			if err := json.Unmarshal(pollEvents(t, h, name), &evs); err != nil {
				t.Fatal(err)
			}
			healthy := batchDiagnosis(t, h, name, nil)
			withdrawn := make([]int, len(links))
			announced := make([]int, len(links))
			for _, ev := range evs {
				k := int(ev.FirstTS / oracleEpisodeMS)
				if k >= len(links) || ev.Status != core.EventDiagnosed || ev.Hypothesis == nil {
					t.Fatalf("event %s: episode %d of %d, status %q (%s)", ev.ID, k, len(links), ev.Status, ev.Error)
				}
				want := healthy
				if ev.FirstTS%oracleEpisodeMS < oracleAnnounceAt {
					withdrawn[k]++
					l := links[k]
					want = batchDiagnosis(t, h, name, [][2]string{{topo.Router(l.A).Name, topo.Router(l.B).Name}})
				} else {
					announced[k]++
				}
				if !reflect.DeepEqual(*ev.Hypothesis, want) {
					t.Errorf("event %s (episode %d, first_ts %d): hypothesis %+v, /v1/diagnose %+v",
						ev.ID, k, ev.FirstTS, *ev.Hypothesis, want)
				}
			}
			for k := range links {
				if withdrawn[k] == 0 || announced[k] != 1 {
					t.Errorf("episode %d: %d withdrawal events and %d announcement events, want at least 1 and exactly 1",
						k, withdrawn[k], announced[k])
				}
			}
		})
	}
}

// oracleLinks returns up to 10 links of the snapshot's healthy mesh,
// evenly spaced over the mesh's links in ID order.
func oracleLinks(snap *Snapshot) []*topology.PhysLink {
	topo := snap.Scenario.Topo
	seen := map[topology.LinkID]bool{}
	var all []*topology.PhysLink
	for i := range snap.BeforeMesh.Paths {
		for _, p := range snap.BeforeMesh.Paths[i] {
			if p == nil {
				continue
			}
			for _, hop := range p.Links() {
				if l, ok := topo.LinkBetween(hop[0], hop[1]); ok && !seen[l.ID] {
					seen[l.ID] = true
					all = append(all, l)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	n := min(len(all), 10)
	out := make([]*topology.PhysLink, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

// probeRecords renders one streamed traceroute: a record per hop, then
// the done record carrying the path's outcome.
func probeRecords(id string, ts int64, src, dst string, p *probe.Path) []any {
	var out []any
	for i, hop := range p.Hops {
		out = append(out, stream.TraceRecord{Probe: id, TS: ts, Src: src, Dst: dst,
			Hop: &stream.HopRecord{TTL: i + 1, Addr: hop.Addr}})
	}
	return append(out, stream.TraceRecord{Probe: id, TS: ts, Src: src, Dst: dst, Done: true, OK: p.OK})
}

// ingestLines posts records as one NDJSON body to /v1/ingest/{kind} and
// requires every line to be accepted.
func ingestLines(t *testing.T, h http.Handler, scenario, kind string, records ...any) {
	t.Helper()
	var body strings.Builder
	enc := json.NewEncoder(&body)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest/"+kind+"?scenario="+scenario, strings.NewReader(body.String()))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp ingestResponse
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil || resp.Rejected != 0 {
		t.Fatalf("POST /v1/ingest/%s = %d: %s", kind, w.Code, w.Body.String())
	}
}

// batchDiagnosis returns the decoded nd-edge result of /v1/diagnose for
// one failure set.
func batchDiagnosis(t *testing.T, h http.Handler, scenario string, failLinks [][2]string) core.WireResult {
	t.Helper()
	req, err := json.Marshal(DiagnoseRequest{Scenario: scenario, Algorithm: "nd-edge", FailLinks: failLinks})
	if err != nil {
		t.Fatal(err)
	}
	w := post(t, h, string(req))
	var res core.WireResult
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &res) != nil {
		t.Fatalf("POST /v1/diagnose %s = %d: %s", req, w.Code, w.Body.String())
	}
	return res
}
