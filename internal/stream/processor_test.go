package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"netdiag/internal/bgp"
	"netdiag/internal/core"
	"netdiag/internal/netsim"
	"netdiag/internal/probe"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// fig2View converges the Figure 2 scenario into a processor view,
// mirroring the server snapshot setup.
func fig2View(t testing.TB, workers int) (View, *topology.Fig2) {
	t.Helper()
	f2 := topology.BuildFig2()
	sensors := []topology.RouterID{f2.S1, f2.S2, f2.S3}
	seen := map[topology.ASN]bool{}
	var origins []topology.ASN
	prefixes := make([]bgp.Prefix, len(sensors))
	for i, s := range sensors {
		as := f2.Topo.RouterAS(s)
		prefixes[i] = bgp.PrefixFor(as)
		if !seen[as] {
			seen[as] = true
			origins = append(origins, as)
		}
	}
	n, err := netsim.New(f2.Topo, origins)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]topology.RouterID{}
	for i := 0; i < f2.Topo.NumRouters(); i++ {
		id := topology.RouterID(i)
		byName[f2.Topo.Router(id).Name] = id
	}
	return View{
		Scenario: "fig2",
		Topo:     f2.Topo,
		Sensors:  sensors,
		Prefixes: prefixes,
		Baseline: n.Mesh(sensors),
		Net:      n.Fork(),
		Router: func(ref string) (topology.RouterID, bool) {
			id, ok := byName[ref]
			return id, ok
		},
		Workers: workers,
	}, f2
}

// stubDiagnoser returns a deterministic body derived from the T+ mesh,
// so the test can tell which mesh snapshot a diagnosis saw.
func stubDiagnoser() Diagnoser {
	return func(id string, tminus, tplus *probe.Mesh) ([]byte, bool, error) {
		failed := 0
		for i := range tplus.Paths {
			for j, p := range tplus.Paths[i] {
				if i != j && p != nil && !p.OK {
					failed++
				}
			}
		}
		res := &core.WireResult{Algorithm: "stub", Unexplained: failed, Hypothesis: []core.WireHyp{}}
		var buf bytes.Buffer
		if err := res.Encode(&buf); err != nil {
			return nil, false, err
		}
		return buf.Bytes(), false, nil
	}
}

// ingest feeds one NDJSON body to the endpoint and fails the test on
// any rejected line.
func ingest(t testing.TB, fn func(r *strings.Reader) (int, int, error, error), lines ...string) {
	t.Helper()
	_, rejected, firstErr, ioErr := fn(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if ioErr != nil {
		t.Fatal(ioErr)
	}
	if rejected != 0 {
		t.Fatalf("%d lines rejected: %v", rejected, firstErr)
	}
}

func ingestTrace(t testing.TB, p *Processor, lines ...string) {
	t.Helper()
	ingest(t, func(r *strings.Reader) (int, int, error, error) { return p.IngestTraceroute(r) }, lines...)
}

func ingestBGP(t testing.TB, p *Processor, lines ...string) {
	t.Helper()
	ingest(t, func(r *strings.Reader) (int, int, error, error) { return p.IngestBGP(r) }, lines...)
}

// quiesce polls until no event is open, diagnosing or pending.
func quiesce(t testing.TB, p *Processor) []*core.WireEvent {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		evs := p.Events()
		settled := true
		for _, ev := range evs {
			if ev.Status != core.EventDiagnosed && ev.Status != core.EventFailed {
				settled = false
			}
		}
		if settled {
			return evs
		}
		if time.Now().After(deadline) {
			t.Fatalf("events did not settle: %+v", evs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func renderEvents(t *testing.T, evs []*core.WireEvent) string {
	t.Helper()
	var buf bytes.Buffer
	if err := core.EncodeWireEvents(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// traceLines renders the NDJSON lines of one streamed probe over the
// given hop router names (resolved to their topology addresses).
func traceLines(topo *topology.Topology, byName func(string) (topology.RouterID, bool), probeID string, ts int64, src, dst string, ok bool, hops ...string) []string {
	var lines []string
	for i, h := range hops {
		addr := h
		if id, found := byName(h); found {
			addr = topo.Router(id).Addr
		}
		lines = append(lines, fmt.Sprintf(`{"probe":%q,"ts":%d,"src":%q,"dst":%q,"hop":{"ttl":%d,"addr":%q,"rtt_ms":%d.5}}`,
			probeID, ts, src, dst, i+1, addr, (i+1)*10))
	}
	lines = append(lines, fmt.Sprintf(`{"probe":%q,"ts":%d,"src":%q,"dst":%q,"done":true,"ok":%v}`,
		probeID, ts, src, dst, ok))
	return lines
}

func bgpLine(ts int64, typ, a, b string) string {
	if typ == BGPKeepalive {
		return fmt.Sprintf(`{"ts":%d,"type":"keepalive"}`, ts)
	}
	return fmt.Sprintf(`{"ts":%d,"type":%q,"a":%q,"b":%q}`, ts, typ, a, b)
}

// TestWithdrawalEvent walks the happy path: a backup-link withdrawal
// dirties a minority of pairs, a correlated failing traceroute joins the
// same event, a keepalive closes it, and the diagnosis lands.
func TestWithdrawalEvent(t *testing.T) {
	reg := telemetry.New()
	view, _ := fig2View(t, 2)
	p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: reg})

	ingestBGP(t, p, bgpLine(1000, BGPWithdrawal, "y3", "y4"))
	// A failing external probe whose last hop is in AS-Y correlates via
	// the shared suspect AS.
	ingestTrace(t, p, traceLines(view.Topo, view.Router, "pr-1", 1500, "s1", "s3", false, "a1", "a2", "x1", "x2", "y1", "y2")...)
	ingestBGP(t, p, bgpLine(20000, BGPKeepalive, "", ""))

	evs := quiesce(t, p)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1: %s", len(evs), renderEvents(t, evs))
	}
	ev := evs[0]
	if ev.Status != core.EventDiagnosed {
		t.Fatalf("event status %q, want diagnosed", ev.Status)
	}
	if len(ev.Observations) != 2 {
		t.Fatalf("got %d observations, want 2", len(ev.Observations))
	}
	if ev.Observations[0].Kind != "bgp" || ev.Observations[1].Kind != "traceroute" {
		t.Fatalf("observation kinds = %q, %q", ev.Observations[0].Kind, ev.Observations[1].Kind)
	}
	if ev.TraceID != ev.ID || !telemetry.ValidTraceID(ev.TraceID) {
		t.Fatalf("trace id %q does not mirror a valid event id %q", ev.TraceID, ev.ID)
	}
	if ev.Hypothesis == nil || ev.Hypothesis.Algorithm != "stub" {
		t.Fatalf("hypothesis not adopted: %+v", ev.Hypothesis)
	}

	// Dirty-pair pruning: the y3-y4 withdrawal must re-probe under half
	// of the 6 ordered pairs.
	re := reg.Counter("stream.pairs_reprobed").Value()
	sk := reg.Counter("stream.pairs_skipped").Value()
	if re+sk == 0 || 2*re >= re+sk {
		t.Fatalf("withdrawal re-probed %d/%d pairs, want < 50%%", re, re+sk)
	}
}

// TestSeparateEvents pins the correlation rule's negative side: trouble
// with disjoint suspect sets lands in separate events.
func TestSeparateEvents(t *testing.T) {
	view, _ := fig2View(t, 1)
	p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: telemetry.New()})

	ingestBGP(t, p, bgpLine(1000, BGPWithdrawal, "y3", "y4"))
	// Last hop b1 is in AS-B: no shared suspect with the AS-Y withdrawal.
	ingestTrace(t, p, traceLines(view.Topo, view.Router, "pr-2", 1500, "s2", "s1", false, "b2", "b1")...)
	ingestBGP(t, p, bgpLine(20000, BGPKeepalive, "", ""))

	evs := quiesce(t, p)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %s", len(evs), renderEvents(t, evs))
	}
	if evs[0].ID == evs[1].ID {
		t.Fatal("distinct events share an ID")
	}
}

// TestNoopRecords pins the zero-work guarantees: a repeated withdrawal
// and a successful probe neither re-probe nor observe.
func TestNoopRecords(t *testing.T) {
	reg := telemetry.New()
	view, _ := fig2View(t, 1)
	p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: reg})

	ingestBGP(t, p, bgpLine(1000, BGPWithdrawal, "y3", "y4"))
	reprobed := reg.Counter("stream.pairs_reprobed").Value()
	obs := reg.Counter("stream.observations").Value()

	// Same link withdrawn again: the fork already knows, so nothing
	// re-probes and no new observation joins the event.
	ingestBGP(t, p, bgpLine(1200, BGPWithdrawal, "y3", "y4"))
	// A successful probe is a watermark, not trouble.
	ingestTrace(t, p, traceLines(view.Topo, view.Router, "pr-3", 1300, "s1", "s2", true, "a1", "a2")...)

	if got := reg.Counter("stream.pairs_reprobed").Value(); got != reprobed {
		t.Fatalf("no-op records re-probed %d pairs", got-reprobed)
	}
	if got := reg.Counter("stream.observations").Value(); got != obs {
		t.Fatalf("no-op records produced %d observations", got-obs)
	}
	if got := reg.Counter("stream.noop_records").Value(); got != 1 {
		t.Fatalf("noop_records = %d, want 1", got)
	}
}

// TestAnnouncementRestores pins the restoration path: after a
// withdrawal, the matching announcement force-re-probes everything and
// the overlay returns to the baseline.
func TestAnnouncementRestores(t *testing.T) {
	reg := telemetry.New()
	view, _ := fig2View(t, 1)
	p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: reg})

	ingestBGP(t, p,
		bgpLine(1000, BGPWithdrawal, "y4", "b1"),
		bgpLine(10000, BGPAnnouncement, "y4", "b1"),
		bgpLine(30000, BGPKeepalive, "", ""))

	p.mu.Lock()
	cur := p.overlay.Clone()
	p.mu.Unlock()
	for i := range cur.Paths {
		for j, path := range cur.Paths[i] {
			if i == j {
				continue
			}
			base := view.Baseline.Paths[i][j]
			if path.OK != base.OK || len(path.Hops) != len(base.Hops) {
				t.Fatalf("pair %d->%d did not return to baseline after announcement", i, j)
			}
		}
	}
}

// TestDeterministicReplay is the tentpole contract at the processor
// level: the same records ingested in order, in reversed chunks (forcing
// reset-and-replay), and in random interleavings render byte-identical
// event listings after quiescence.
func TestDeterministicReplay(t *testing.T) {
	type chunk struct {
		bgp   bool
		lines []string
	}
	build := func(view View) []chunk {
		return []chunk{
			{bgp: true, lines: []string{bgpLine(1000, BGPWithdrawal, "y3", "y4")}},
			{bgp: false, lines: traceLines(view.Topo, view.Router, "pr-a", 1500, "s1", "s3", false, "a1", "a2", "x1", "x2", "y1", "y2")},
			{bgp: false, lines: traceLines(view.Topo, view.Router, "pr-b", 2500, "s2", "s1", false, "b2", "b1")},
			{bgp: true, lines: []string{bgpLine(9000, BGPAnnouncement, "y3", "y4")}},
			{bgp: true, lines: []string{bgpLine(40000, BGPKeepalive, "", "")}},
		}
	}
	run := func(t *testing.T, workers int, order []int) (string, *telemetry.Registry) {
		reg := telemetry.New()
		view, _ := fig2View(t, workers)
		p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: reg})
		chunks := build(view)
		for _, i := range order {
			c := chunks[i]
			if c.bgp {
				ingestBGP(t, p, c.lines...)
			} else {
				ingestTrace(t, p, c.lines...)
			}
		}
		return renderEvents(t, quiesce(t, p)), reg
	}

	want, _ := run(t, 1, []int{0, 1, 2, 3, 4})
	reversed, reg := run(t, 2, []int{4, 3, 2, 1, 0})
	if reversed != want {
		t.Fatalf("reversed replay diverged:\n--- in-order ---\n%s--- reversed ---\n%s", want, reversed)
	}
	if reg.Counter("stream.sweep_resets").Value() == 0 {
		t.Fatal("reversed replay triggered no sweep resets")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		order := rng.Perm(5)
		got, _ := run(t, 1+trial%2, order)
		if got != want {
			t.Fatalf("replay order %v diverged:\n--- want ---\n%s--- got ---\n%s", order, want, got)
		}
	}
}

// TestPendingRetry pins the shed path: a diagnoser that sheds the first
// attempt parks the event pending, and a later listing retries it to
// completion.
func TestPendingRetry(t *testing.T) {
	view, _ := fig2View(t, 1)
	attempts := 0
	inner := stubDiagnoser()
	var p *Processor
	p = NewProcessor(Config{View: view, Telemetry: telemetry.New(),
		Diagnose: func(id string, tminus, tplus *probe.Mesh) ([]byte, bool, error) {
			attempts++
			if attempts == 1 {
				return nil, true, nil
			}
			return inner(id, tminus, tplus)
		}})

	ingestBGP(t, p, bgpLine(1000, BGPWithdrawal, "y3", "y4"), bgpLine(20000, BGPKeepalive, "", ""))
	evs := quiesce(t, p)
	if len(evs) != 1 || evs[0].Status != core.EventDiagnosed {
		t.Fatalf("shed event did not recover: %s", renderEvents(t, evs))
	}
	if attempts < 2 {
		t.Fatalf("diagnoser attempts = %d, want >= 2", attempts)
	}
}

// TestEventByID pins single-event lookup, including the miss.
func TestEventByID(t *testing.T) {
	view, _ := fig2View(t, 1)
	p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: telemetry.New()})
	ingestBGP(t, p, bgpLine(1000, BGPWithdrawal, "y3", "y4"), bgpLine(20000, BGPKeepalive, "", ""))
	evs := quiesce(t, p)
	got := p.EventByID(evs[0].ID)
	if got == nil || got.ID != evs[0].ID {
		t.Fatalf("EventByID(%q) = %+v", evs[0].ID, got)
	}
	if p.EventByID("ev-nope") != nil {
		t.Fatal("EventByID of unknown id returned an event")
	}
}

// TestIngestRejects pins per-line rejection accounting: bad lines are
// counted and reported without poisoning the valid ones around them.
func TestIngestRejects(t *testing.T) {
	view, _ := fig2View(t, 1)
	p := NewProcessor(Config{View: view, Telemetry: telemetry.New()})
	body := strings.Join([]string{
		bgpLine(1000, BGPWithdrawal, "y3", "y4"),
		`{"ts":2000,"type":"withdrawal","a":"nope","b":"y4"}`,
		`not json`,
		bgpLine(3000, BGPKeepalive, "", ""),
	}, "\n")
	accepted, rejected, firstErr, ioErr := p.IngestBGP(strings.NewReader(body))
	if ioErr != nil {
		t.Fatal(ioErr)
	}
	if accepted != 2 || rejected != 2 {
		t.Fatalf("accepted=%d rejected=%d, want 2/2", accepted, rejected)
	}
	if firstErr == nil || !strings.Contains(firstErr.Error(), "unknown router") {
		t.Fatalf("firstErr = %v", firstErr)
	}
}
