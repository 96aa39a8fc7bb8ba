package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"netdiag/internal/core"
	"netdiag/internal/netsim"
	"netdiag/internal/probe"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// fig2View converges the Figure 2 scenario into a processor view,
// mirroring the server snapshot setup. workers is the network's
// parallelism, which the processor's re-meshes run at; opts configure the
// network further.
func fig2View(t testing.TB, workers int, opts ...netsim.Option) (View, *topology.Fig2) {
	t.Helper()
	f2 := topology.BuildFig2()
	sensors := []topology.RouterID{f2.S1, f2.S2, f2.S3}
	seen := map[topology.ASN]bool{}
	var origins []topology.ASN
	for _, s := range sensors {
		if as := f2.Topo.RouterAS(s); !seen[as] {
			seen[as] = true
			origins = append(origins, as)
		}
	}
	n, err := netsim.New(f2.Topo, origins, append([]netsim.Option{netsim.WithParallelism(workers)}, opts...)...)
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
		Baseline: n.Mesh(sensors),
		Net:      n,
		Router: func(ref string) (topology.RouterID, bool) {
			id, ok := byName[ref]
			return id, ok
		},
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
// opens an event, a correlated failing traceroute joins it, a keepalive
// closes it, and the diagnosis lands.
func TestWithdrawalEvent(t *testing.T) {
	view, _ := fig2View(t, 2)
	p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: telemetry.New()})

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
// and a successful probe neither re-measure nor observe.
func TestNoopRecords(t *testing.T) {
	reg := telemetry.New()
	view, _ := fig2View(t, 1)
	p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: reg})

	ingestBGP(t, p, bgpLine(1000, BGPWithdrawal, "y3", "y4"))
	p.mu.Lock()
	overlay := p.overlay
	p.mu.Unlock()
	if overlay == view.Baseline {
		t.Fatal("the withdrawal did not re-measure the overlay")
	}
	obs := reg.Counter("stream.observations").Value()

	// Same link withdrawn again: the set already holds it, so nothing
	// re-measures and no new observation joins the event.
	ingestBGP(t, p, bgpLine(1200, BGPWithdrawal, "y3", "y4"))
	// A successful probe is a watermark, not trouble.
	ingestTrace(t, p, traceLines(view.Topo, view.Router, "pr-3", 1300, "s1", "s2", true, "a1", "a2")...)

	p.mu.Lock()
	same := p.overlay == overlay
	p.mu.Unlock()
	if !same {
		t.Fatal("no-op records re-measured the overlay")
	}
	if got := reg.Counter("stream.observations").Value(); got != obs {
		t.Fatalf("no-op records produced %d observations", got-obs)
	}
	if got := reg.Counter("stream.noop_records").Value(); got != 1 {
		t.Fatalf("noop_records = %d, want 1", got)
	}
}

// TestAnnouncementRestores pins the restoration path: after a
// withdrawal, the matching announcement empties the withdrawn set and the
// overlay is the baseline again.
func TestAnnouncementRestores(t *testing.T) {
	view, _ := fig2View(t, 1)
	p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: telemetry.New()})

	ingestBGP(t, p,
		bgpLine(1000, BGPWithdrawal, "y4", "b1"),
		bgpLine(10000, BGPAnnouncement, "y4", "b1"),
		bgpLine(30000, BGPKeepalive, "", ""))

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.overlay != view.Baseline || len(p.down) != 0 {
		t.Fatalf("after the announcement: %d links withdrawn, overlay is the baseline: %v", len(p.down), p.overlay == view.Baseline)
	}
}

// TestOverlayIsWithdrawnSetMesh replays seeded random withdraw/announce
// sequences over four of fig2's links, repeats included. After every
// record the withdrawn set must match the sequence, and the overlay must
// equal, path for path, the mesh of a fresh fork of the healthy network
// with exactly those links failed: the baseline itself when no link is
// withdrawn, reached with no reconvergence when an announcement empties
// the set.
func TestOverlayIsWithdrawnSetMesh(t *testing.T) {
	reg := telemetry.New()
	view, _ := fig2View(t, 1, netsim.WithTelemetry(reg))
	reconverges := reg.Counter("netsim.reconverges")
	all := view.Topo.Links()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var links []*topology.PhysLink
		for _, i := range rng.Perm(len(all))[:4] {
			links = append(links, all[i])
		}
		p := NewProcessor(Config{View: view, Telemetry: telemetry.New()})
		withdrawn := map[topology.LinkID]bool{}
		emptied := 0
		for step := 0; step < 40; step++ {
			l := links[rng.Intn(len(links))]
			typ := BGPAnnouncement
			if rng.Intn(2) == 0 {
				typ = BGPWithdrawal
			}
			before, was := reconverges.Value(), len(withdrawn)
			ingestBGP(t, p, bgpLine(int64(1000*(step+1)), typ, view.Topo.Router(l.A).Name, view.Topo.Router(l.B).Name))
			if typ == BGPWithdrawal {
				withdrawn[l.ID] = true
			} else {
				delete(withdrawn, l.ID)
			}

			fork := view.Net.Fork()
			var want []topology.LinkID
			for id := range withdrawn {
				want = append(want, id)
				fork.FailLink(id)
			}
			slices.Sort(want)
			p.mu.Lock()
			down, overlay := p.down, p.overlay
			p.mu.Unlock()
			if !slices.Equal(down, want) {
				t.Fatalf("seed %d step %d: withdrawn set %v, want %v", seed, step, down, want)
			}
			if len(want) == 0 {
				if overlay != view.Baseline {
					t.Fatalf("seed %d step %d: nothing withdrawn, but the overlay is not the baseline", seed, step)
				}
				if was > 0 {
					emptied++
					if got := reconverges.Value(); got != before {
						t.Fatalf("seed %d step %d: emptying the set reconverged %d times", seed, step, got-before)
					}
				}
				continue
			}
			if err := fork.Reconverge(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(overlay, fork.Mesh(view.Sensors)) {
				t.Fatalf("seed %d step %d: overlay differs from the mesh of a fork with %v failed", seed, step, want)
			}
		}
		if emptied == 0 {
			t.Fatalf("seed %d: no announcement emptied the withdrawn set", seed)
		}
	}
}

// TestDeterministicReplay is the tentpole contract at the processor
// level: the same records ingested in order, in reversed chunks (forcing
// reset-and-replay), in random interleavings, and with every chunk
// ingested twice render byte-identical event listings after quiescence.
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

	// A repeated record lands on its journaled copy and is dropped, so a
	// second pass over the feed neither replays nor adds an observation.
	doubled := []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}
	got, reg := run(t, 1, doubled)
	if got != want {
		t.Fatalf("doubled replay diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if n := reg.Counter("stream.sweep_resets").Value(); n != 0 {
		t.Fatalf("doubled in-order replay triggered %d sweep resets", n)
	}
	for trial := 0; trial < 3; trial++ {
		order := append([]int(nil), doubled...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		got, _ := run(t, 1+trial%2, order)
		if got != want {
			t.Fatalf("doubled replay order %v diverged:\n--- want ---\n%s--- got ---\n%s", order, want, got)
		}
	}
}

// TestPendingRetry pins the shed path: a diagnoser that sheds the first
// attempt parks the event pending, and a later listing retries it to
// completion, also when the shed run was in flight across a journal
// reset.
func TestPendingRetry(t *testing.T) {
	t.Run("shed", func(t *testing.T) {
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
	})

	// The first run blocks until a keepalive behind the cursor has reset
	// the journal, then sheds: the reset must keep the running diagnosis
	// (the re-closed event lists as diagnosing and starts no second run),
	// and the shed must leave the re-closed event pending for a retry.
	t.Run("in flight across a reset", func(t *testing.T) {
		reg := telemetry.New()
		view, _ := fig2View(t, 1)
		inner := stubDiagnoser()
		release := make(chan struct{})
		var (
			mu    sync.Mutex
			calls int
		)
		p := NewProcessor(Config{View: view, Telemetry: reg,
			Diagnose: func(id string, tminus, tplus *probe.Mesh) ([]byte, bool, error) {
				mu.Lock()
				calls++
				first := calls == 1
				mu.Unlock()
				if first {
					<-release
					return nil, true, nil
				}
				return inner(id, tminus, tplus)
			}})

		ingestBGP(t, p, bgpLine(1000, BGPWithdrawal, "y3", "y4"), bgpLine(20000, BGPKeepalive, "", ""))
		ingestBGP(t, p, bgpLine(500, BGPKeepalive, "", ""))
		evs := p.Events()
		close(release)
		if len(evs) != 1 || evs[0].Status != core.EventDiagnosing {
			t.Fatalf("event in flight across the reset does not list as diagnosing: %s", renderEvents(t, evs))
		}
		evs = quiesce(t, p)
		if len(evs) != 1 || evs[0].Status != core.EventDiagnosed {
			t.Fatalf("shed event did not recover: %s", renderEvents(t, evs))
		}
		mu.Lock()
		if calls != 2 {
			t.Errorf("diagnoser ran %d times, want 2", calls)
		}
		mu.Unlock()
		for name, want := range map[string]int64{"stream.sweep_resets": 1, "stream.events_diagnosed": 1} {
			if got := reg.Counter(name).Value(); got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
	})
}

// TestSettledEventsAfterReset pins what a journal reset does to settled
// events: re-closed events find their settled diagnoses in the table
// without running or counting them again, and no settled event keeps its
// T+ mesh.
func TestSettledEventsAfterReset(t *testing.T) {
	reg := telemetry.New()
	view, _ := fig2View(t, 1)
	inner := stubDiagnoser()
	var (
		mu    sync.Mutex
		calls int
	)
	p := NewProcessor(Config{View: view, Telemetry: reg,
		Diagnose: func(id string, tminus, tplus *probe.Mesh) ([]byte, bool, error) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				return nil, false, fmt.Errorf("stub failure")
			}
			return inner(id, tminus, tplus)
		}})

	// Two events with disjoint suspects: one diagnosis fails, one lands.
	ingestBGP(t, p, bgpLine(1000, BGPWithdrawal, "y3", "y4"))
	ingestTrace(t, p, traceLines(view.Topo, view.Router, "pr-2", 1500, "s2", "s1", false, "b2", "b1")...)
	ingestBGP(t, p, bgpLine(20000, BGPKeepalive, "", ""))
	if evs := quiesce(t, p); len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %s", len(evs), renderEvents(t, evs))
	}

	// A keepalive behind the cursor replays the journal from the healthy
	// base, re-closing both events.
	ingestBGP(t, p, bgpLine(500, BGPKeepalive, "", ""))
	quiesce(t, p)
	if got := reg.Counter("stream.sweep_resets").Value(); got != 1 {
		t.Fatalf("sweep_resets = %d, want 1", got)
	}
	for _, name := range []string{"stream.events_diagnosed", "stream.events_failed"} {
		if got := reg.Counter(name).Value(); got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	mu.Lock()
	if calls != 2 {
		t.Errorf("diagnoser ran %d times, want 2", calls)
	}
	mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ev := range p.closed {
		if d := p.diags[ev.id]; d == nil || d.running {
			t.Errorf("event %s has no settled diagnosis", ev.id)
		} else if ev.tplus != nil {
			t.Errorf("settled event %s (error %q) still holds its T+ mesh", ev.id, d.errMsg)
		}
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

// TestLateRecordRediagnoses pins that a late routing record which changes
// the withdrawn set an already closed event closes under re-runs that
// event's diagnosis, whether the first run has settled or is still in
// flight when the record lands. A failing s1→s3 traceroute that stops at
// a2 (ts 1000) and a keepalive (ts 20000) close one event under the
// healthy mesh; the b1~b2 withdrawal at ts 2000 shares no suspect with
// it, but arrives behind the cursor, and its event's T+ has that link
// down. The listing must equal in-order ingestion.
func TestLateRecordRediagnoses(t *testing.T) {
	view, _ := fig2View(t, 1)
	trace := traceLines(view.Topo, view.Router, "pr-late", 1000, "s1", "s3", false, "a1", "a2")
	withdrawal := bgpLine(2000, BGPWithdrawal, "b1", "b2")
	keepalive := bgpLine(20000, BGPKeepalive, "", "")

	reg := telemetry.New()
	p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: reg})
	ingestTrace(t, p, trace...)
	ingestBGP(t, p, withdrawal, keepalive)
	want := renderEvents(t, quiesce(t, p))
	wantDiagnosed := reg.Counter("stream.events_diagnosed").Value()

	t.Run("settled", func(t *testing.T) {
		reg := telemetry.New()
		p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: reg})
		ingestTrace(t, p, trace...)
		ingestBGP(t, p, keepalive)
		quiesce(t, p)
		ingestBGP(t, p, withdrawal)
		if got := renderEvents(t, quiesce(t, p)); got != want {
			t.Fatalf("late record left a stale diagnosis:\n--- in order ---\n%s--- late ---\n%s", want, got)
		}
	})

	// The first run blocks until the late record has re-closed its event:
	// its result is stale, so it must settle nothing and count nothing.
	t.Run("in flight", func(t *testing.T) {
		reg := telemetry.New()
		inner := stubDiagnoser()
		entered, release := make(chan struct{}), make(chan struct{})
		var (
			mu    sync.Mutex
			calls int
		)
		p := NewProcessor(Config{View: view, Telemetry: reg,
			Diagnose: func(id string, tminus, tplus *probe.Mesh) ([]byte, bool, error) {
				mu.Lock()
				calls++
				first := calls == 1
				mu.Unlock()
				if first {
					close(entered)
					<-release
				}
				return inner(id, tminus, tplus)
			}})
		ingestTrace(t, p, trace...)
		ingestBGP(t, p, keepalive)
		<-entered
		ingestBGP(t, p, withdrawal)
		close(release)
		if got := renderEvents(t, quiesce(t, p)); got != want {
			t.Fatalf("late record left a stale diagnosis:\n--- in order ---\n%s--- late ---\n%s", want, got)
		}
		if got := reg.Counter("stream.events_diagnosed").Value(); got != wantDiagnosed {
			t.Fatalf("events_diagnosed = %d, want %d", got, wantDiagnosed)
		}
	})
}

// TestOrphanedDiagnosesReclaimed pins that the diagnosis table holds only
// IDs of closed events. Each late failing traceroute joins the closed
// event of a y3~y4 withdrawal and so changes its ID; the old ID's
// diagnosis must go.
func TestOrphanedDiagnosesReclaimed(t *testing.T) {
	view, _ := fig2View(t, 1)
	p := NewProcessor(Config{View: view, Diagnose: stubDiagnoser(), Telemetry: telemetry.New()})
	ingestBGP(t, p, bgpLine(1000, BGPWithdrawal, "y3", "y4"), bgpLine(20000, BGPKeepalive, "", ""))
	quiesce(t, p)
	for k := int64(1); k <= 5; k++ {
		ingestTrace(t, p, traceLines(view.Topo, view.Router, fmt.Sprintf("pr-%d", k), 1000+100*k,
			"s1", "s3", false, "a1", "a2", "x1", "x2", "y1", "y2")...)
		quiesce(t, p)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.closed) != 1 || len(p.diags) != len(p.closed) {
		t.Fatalf("%d closed events and %d diagnoses, want 1 and 1", len(p.closed), len(p.diags))
	}
}
