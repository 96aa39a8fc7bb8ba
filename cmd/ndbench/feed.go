package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"netdiag"
	"netdiag/internal/core"
	"netdiag/internal/experiment"
	"netdiag/internal/probe"
	"netdiag/internal/server"
	"netdiag/internal/stream"
)

// The stream-feed workload: one feeder posts the generated NDJSON feed on
// its fixed schedule (open loop) while one poller lists the scenario's
// events every pollEvery. Latencies are timed from each body's due time,
// so a stalled ingest also delays every later body.
//
// The open loop cannot pause for a calibration, so the poller calibrates
// when the system is idle: after an episode's last body, once every event
// is terminal, if the next body is at least calibIdle away.

const (
	pollEvery   = 20 * time.Millisecond
	drainWithin = 5 * time.Second
	calibIdle   = 40 * time.Millisecond
	// diagReqBase separates diagnosis span groups from ingest ones.
	diagReqBase = 1 << 20
)

// eventState is the slice of a listed event the poller needs.
type eventState struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	LastTS int64  `json:"last_ts"`
}

func terminal(status string) bool {
	return status == core.EventDiagnosed || status == core.EventFailed
}

// feedRun is what a pass over the feed measured.
type feedRun struct {
	start  time.Time
	late   []float64   // ms each body was sent after its due time
	acked  []time.Time // when each body's ingest returned
	ingest []float64   // ms from each body's due time to its ack
	// Per event: when a poll first showed it terminal, and with which
	// status; and the last listing.
	firstSeen map[string]time.Time
	status    map[string]string
	final     []eventState
}

// observe records one listing, seen at time at, and reports whether every
// event in it is terminal.
func (fr *feedRun) observe(evs []eventState, at time.Time) bool {
	fr.final = evs
	settled := true
	for _, ev := range evs {
		if !terminal(ev.Status) {
			settled = false
			continue
		}
		if _, ok := fr.firstSeen[ev.ID]; !ok {
			fr.firstSeen[ev.ID] = at
			fr.status[ev.ID] = ev.Status
		}
	}
	return settled
}

// eventLatencies maps every listed event to the body that closed it and
// returns the time from that body's due time to the first poll showing
// the event diagnosed. Events that never got there are counted as failed.
func (fr *feedRun) eventLatencies(feed []feedBody, r *report) []float64 {
	var out []float64
	for _, ev := range fr.final {
		r.attempted++
		cb := closingBody(feed, ev.LastTS)
		seen, ok := fr.firstSeen[ev.ID]
		switch {
		case cb < 0:
			r.fail("event %s (last_ts %d) closed by no body", ev.ID, ev.LastTS)
		case !ok || fr.status[ev.ID] != core.EventDiagnosed:
			r.fail("event %s not diagnosed within the drain (status %s)", ev.ID, ev.Status)
		default:
			out = append(out, seen.Sub(fr.start.Add(feed[cb].due)).Seconds()*1e3)
		}
	}
	return out
}

// feedLoop sends every body on schedule through ingest from one goroutine
// while this one lists the events through poll every pollEvery, and
// calibrates when the system is idle; after the last body it keeps polling
// until every event is terminal or drainWithin has passed. ingest reports
// its own failures.
func feedLoop(feed []feedBody, ingest func(i int), poll func() ([]eventState, error), cal *calibrator) (*feedRun, error) {
	cal.calibrate()
	var sent atomic.Int64 // bodies whose ingest has returned
	calibrated := 0       // bodies sent at the last calibration
	fr := &feedRun{
		start:     time.Now(),
		acked:     make([]time.Time, len(feed)),
		firstSeen: map[string]time.Time{},
		status:    map[string]string{},
	}
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for i, b := range feed {
			due := fr.start.Add(b.due)
			time.Sleep(time.Until(due))
			fr.late = append(fr.late, time.Since(due).Seconds()*1e3)
			ingest(i)
			fr.acked[i] = time.Now()
			fr.ingest = append(fr.ingest, fr.acked[i].Sub(due).Seconds()*1e3)
			sent.Store(int64(i + 1))
		}
	}()
	// The feeder must have finished before fr is read, whatever ends the
	// polling.
	defer func() { <-fed }()
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	var drainEnd time.Time
	for ; ; <-tick.C {
		evs, err := poll()
		if err != nil {
			return nil, err
		}
		settled := fr.observe(evs, time.Now())
		if n := int(sent.Load()); cal != nil && settled && n > calibrated && n%bodiesPerEpisode == 0 &&
			n < len(feed) && time.Until(fr.start.Add(feed[n].due)) >= calibIdle {
			cal.calibrate()
			calibrated = n
		}
		select {
		case <-fed:
		default:
			continue
		}
		if drainEnd.IsZero() {
			drainEnd = time.Now().Add(drainWithin)
		}
		if settled || time.Now().After(drainEnd) {
			return fr, nil
		}
	}
}

func runStreamFeed(ctx context.Context, o opts, r *report) error {
	name := research
	ref := server.NewRegistry()
	if err := registerResearch(ref); err != nil {
		return err
	}
	snap, err := server.NewStore(ref, 0, "", nil).Get(ctx, name)
	if err != nil {
		return err
	}
	feed, err := genFeed(snap, o.seed, feedEpisodes(o.window, drainWithin))
	if err != nil {
		return err
	}
	if o.trace {
		return traceFeed(snap, name, feed, o, r)
	}

	build := func() (*server.Server, error) {
		reg := server.NewRegistry()
		if err := registerResearch(reg); err != nil {
			return nil, err
		}
		s := server.New(server.Config{
			Scenarios: reg, Ingest: true,
			EventWindow: eventWindowMS * time.Millisecond, EventIdleClose: idleCloseMS * time.Millisecond,
		})
		if err := s.WarmAll(ctx); err != nil {
			return nil, err
		}
		_, err := s.StreamProcessor(ctx, name)
		return s, err
	}
	s, setups, err := timeSetups(build, o.cal)
	if err != nil {
		return err
	}
	sv, err := serve(s)
	if err != nil {
		return err
	}
	defer sv.stop()

	query := "?scenario=" + name
	var final []byte
	fr, err := feedLoop(feed, func(i int) {
		b := feed[i]
		path := "/v1/ingest/traceroute"
		if b.bgp {
			path = "/v1/ingest/bgp"
		}
		r.attempted++
		status, body := sv.post(path+query, b.data)
		var acc struct{ Accepted, Rejected int }
		switch {
		case status != http.StatusOK:
			r.fail("body %d: status %d", i, status)
		case json.Unmarshal(body, &acc) != nil || acc.Rejected != 0 || acc.Accepted != b.records:
			r.fail("body %d: accepted %d rejected %d of %d records", i, acc.Accepted, acc.Rejected, b.records)
		}
	}, func() ([]eventState, error) {
		status, body := sv.get("/v1/events" + query)
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET /v1/events: status %d", status)
		}
		final = body
		var evs []eventState
		return evs, json.Unmarshal(body, &evs)
	}, o.cal)
	if err != nil {
		return err
	}
	if err := sv.stop(); err != nil {
		return fmt.Errorf("server drain: %w", err)
	}
	lat := fr.eventLatencies(feed, r)

	replay, err := replayFeed(snap, name, feed)
	if err != nil {
		return err
	}
	if !bytes.Equal(replay, final) {
		r.fail("final /v1/events body (%d bytes) differs from the replay into a fresh processor (%d bytes)", len(final), len(replay))
	}

	reportSetup(r, setups, o.cal)
	reportLatency(r, lat, o.cal)
	i50, _ := percentile(fr.ingest, 50)
	i95, ib95 := percentile(fr.ingest, 95)
	r.info("ingest_p50_ms", i50, "ms", len(fr.ingest))
	r.info("ingest_p95_ms", i95, "ms", ib95)
	reportLateness(r, fr.late, false)
	return nil
}

// reportLateness reports how far the feeder ran behind its schedule: a
// validity check, since lateness near episodeWall means the offered rate
// exceeds what the system sustains.
func reportLateness(r *report, late []float64, asMetric bool) {
	p95, beyond := percentile(late, 95)
	mx, _ := percentile(late, 100)
	emit := r.info
	if asMetric {
		emit = r.set
	}
	emit("harness.feed_late_p95_ms", p95, "ms", beyond)
	emit("harness.feed_late_max_ms", mx, "ms", len(late))
}

// newFeedProcessor builds a streaming processor over a private fork of the
// snapshot, configured as the server configures its own.
func newFeedProcessor(snap *server.Snapshot, name string, d stream.Diagnoser) *stream.Processor {
	return stream.NewProcessor(stream.Config{
		View: stream.View{
			Scenario: name,
			Topo:     snap.Scenario.Topo,
			Sensors:  snap.Scenario.Sensors,
			Prefixes: snap.Prefixes,
			Baseline: snap.BeforeMesh,
			Net:      snap.Net.Fork(),
			Router:   snap.Router,
		},
		WindowMS:    eventWindowMS,
		IdleCloseMS: idleCloseMS,
		Diagnose:    d,
	})
}

// ingestBody feeds one body to the processor and checks every record was
// accepted.
func ingestBody(p *stream.Processor, b feedBody) error {
	in := p.IngestTraceroute
	if b.bgp {
		in = p.IngestBGP
	}
	acc, rej, firstErr, ioErr := in(bytes.NewReader(b.data))
	if ioErr != nil {
		return ioErr
	}
	if rej != 0 || acc != b.records {
		return fmt.Errorf("accepted %d rejected %d of %d records: %v", acc, rej, b.records, firstErr)
	}
	return nil
}

// replayFeed ingests the whole feed, in order and untimed, into a fresh
// processor and returns the settled event listing as /v1/events renders
// it: the reference the served listing must equal byte for byte.
func replayFeed(snap *server.Snapshot, name string, feed []feedBody) ([]byte, error) {
	d := newEventDiagnoser(snap, nil)
	p := newFeedProcessor(snap, name, d.diagnose)
	for i, b := range feed {
		if err := ingestBody(p, b); err != nil {
			return nil, fmt.Errorf("replay body %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		evs := p.Events()
		settled := true
		for _, ev := range evs {
			settled = settled && terminal(ev.Status)
		}
		if settled {
			var buf bytes.Buffer
			err := core.EncodeWireEvents(&buf, evs)
			return buf.Bytes(), err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("replay: events did not settle")
		}
		time.Sleep(pollEvery)
	}
}

// eventDiagnoser is the benchmark's own stream.Diagnoser: ND-edge composed
// of the public calls the server's event diagnosis makes, with at most
// loadClients diagnoses running at once, as the server's queue allows.
type eventDiagnoser struct {
	snap *server.Snapshot
	tr   *tracer
	slot chan struct{}
	seq  atomic.Int64

	mu      sync.Mutex
	started map[string]time.Time // when each event's diagnosis got a slot
	shapes  []shape
}

func newEventDiagnoser(snap *server.Snapshot, tr *tracer) *eventDiagnoser {
	return &eventDiagnoser{snap: snap, tr: tr, slot: make(chan struct{}, loadClients), started: map[string]time.Time{}}
}

func (d *eventDiagnoser) diagnose(id string, tminus, tplus *probe.Mesh) ([]byte, bool, error) {
	d.slot <- struct{}{}
	defer func() { <-d.slot }()
	req := diagReqBase + int(d.seq.Add(1))
	d.mu.Lock()
	d.started[id] = time.Now()
	d.mu.Unlock()
	sp := d.tr.start(req, 0, "experiment.adapt")
	meas := experiment.ToMeasurementsMapped(tminus, tplus, d.snap.IP2AS.Lookup)
	d.tr.end(sp)
	var sh shape
	body, err := diagnoseAndEncode(context.Background(), meas, netdiag.NDEdgeAlgo,
		[]netdiag.DiagnoserOption{netdiag.WithAlgorithm(netdiag.NDEdgeAlgo)}, d.tr, req, &sh)
	d.mu.Lock()
	d.shapes = append(d.shapes, sh)
	d.mu.Unlock()
	return body, false, err
}

// traceFeed is the traced pass: the same feed on the same schedule goes
// straight into a processor, with spans around every ingest and listing
// call and inside the benchmark's diagnoser.
func traceFeed(snap *server.Snapshot, name string, feed []feedBody, o opts, r *report) error {
	d := newEventDiagnoser(snap, o.tracer)
	p := newFeedProcessor(snap, name, d.diagnose)
	spanOf := map[int]string{
		bodyHealthy: "stream.ingest_trace", bodyFailing: "stream.ingest_trace",
		bodyWithdraw: "stream.ingest_bgp", bodyAnnounce: "stream.ingest_bgp",
		bodyClose: "stream.close", bodyClose2: "stream.close",
	}
	fr, err := feedLoop(feed, func(i int) {
		r.attempted++
		sp := o.tracer.start(i+1, 0, spanOf[feed[i].kind])
		err := ingestBody(p, feed[i])
		o.tracer.end(sp)
		if err != nil {
			r.fail("body %d: %v", i, err)
		}
	}, func() ([]eventState, error) {
		sp := o.tracer.start(0, 0, "stream.events_list")
		evs := p.Events()
		o.tracer.end(sp)
		out := make([]eventState, len(evs))
		for i, ev := range evs {
			out[i] = eventState{ID: ev.ID, Status: ev.Status, LastTS: ev.LastTS}
		}
		return out, nil
	}, nil)
	if err != nil {
		return err
	}
	fr.eventLatencies(feed, r)

	var waits []float64
	d.mu.Lock()
	for _, ev := range fr.final {
		cb := closingBody(feed, ev.LastTS)
		if t, ok := d.started[ev.ID]; ok && cb >= 0 {
			waits = append(waits, max(0, t.Sub(fr.acked[cb]).Seconds()*1e3))
		}
	}
	shapes := append([]shape(nil), d.shapes...)
	d.mu.Unlock()

	spans := o.tracer.snapshot()
	self := reportSelfTimes(r, spans,
		[]string{"stream.ingest_trace", "stream.ingest_bgp", "stream.close", "stream.events_list",
			"experiment.adapt", "core.diagnose", "core.encode"},
		"stream.ingest_trace", "stream.ingest_bgp", "stream.events_list", "core.diagnose")
	traceRecords, changes := 0, 0
	for _, b := range feed {
		switch b.kind {
		case bodyHealthy, bodyFailing:
			traceRecords += b.records
		case bodyWithdraw, bodyAnnounce:
			changes++
		}
	}
	traceMS := 0.0
	for _, v := range self["stream.ingest_trace"] {
		traceMS += v
	}
	if traceMS > 0 {
		r.set("stream.trace_records_per_s", float64(traceRecords)/(traceMS/1e3), "1/s", traceRecords)
	}
	r.set("stream.events_retained", float64(len(fr.final)), "count", 1)
	r.set("stream.diag_wait_ms", mean(waits), "ms", len(waits))
	if changes > 0 {
		r.set("stream.events_per_change", float64(len(fr.final))/float64(changes), "ratio", changes)
	}
	total := perReqMS(spans, "experiment.adapt", "core.diagnose", "core.encode")
	r.set("pipeline.total_ms", mean(total), "ms", len(total))
	reportShapes(r, shapes)
	reportLateness(r, fr.late, true)
	return nil
}
