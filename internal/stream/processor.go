package stream

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"netdiag/internal/bgp"
	"netdiag/internal/core"
	"netdiag/internal/netsim"
	"netdiag/internal/probe"
	"netdiag/internal/telemetry"
	"netdiag/internal/topology"
)

// View is everything the processor needs from one warm scenario
// snapshot. The processor never mutates Net or Baseline, the healthy T−
// mesh, which is the overlay until the first applied routing change.
type View struct {
	Scenario string
	Topo     *topology.Topology
	Sensors  []topology.RouterID
	// Prefixes is ignored: every applied routing change re-meshes all
	// pairs, so no per-sensor prefix is consulted. The field stays only
	// because cmd/ndbench, a separate module, still sets it.
	Prefixes []bgp.Prefix
	Baseline *probe.Mesh
	// Net is the converged healthy network: a frozen base the processor
	// forks at construction and again on every journal reset.
	Net *netsim.Network
	// Router resolves a router reference (name or numeric ID) from the
	// feed against the scenario topology.
	Router func(ref string) (topology.RouterID, bool)
}

// Diagnoser diagnoses one closed event given its T−/T+ meshes and
// returns the wire-encoded result body. retry reports a transient
// refusal (admission queue full): the event parks as "pending" and is
// retried on the next sweep or listing. A non-nil err is terminal for
// this event (status "failed") but kept like a success, so replays
// render it identically.
type Diagnoser func(eventID string, tminus, tplus *probe.Mesh) (body []byte, retry bool, err error)

// Config parameterizes a Processor.
type Config struct {
	View View
	// WindowMS is the correlation window in record time: an observation
	// joins an open event when its ts is within this many milliseconds
	// of the event's last observation and they share a suspect link or
	// AS. Zero selects 2000.
	WindowMS int64
	// IdleCloseMS closes an open event once record time has advanced
	// this far past its last observation. Zero selects 5000; values
	// below the window are raised to it, so the closure check subsumes
	// the window check.
	IdleCloseMS int64
	// Diagnose runs the diagnosis of a closed event; nil leaves closed
	// events "pending" forever (tests).
	Diagnose Diagnoser
	// Life scopes re-meshes and sweeps to the owning server's lifetime;
	// nil means no cancellation.
	Life      context.Context
	Telemetry *telemetry.Registry
	Logger    *slog.Logger
}

// entry kinds in the record journal.
const (
	entryMark  = iota // advances record time only (keepalive, successful probe)
	entryTrace        // a failing completed traceroute: observation only
	entryBGP          // withdrawal/announcement: mutates the fork, then observes
)

// entry is one journal record. The journal is the processor's source of
// truth: sorted by (ts, key), swept by a cursor, and replayable — every
// piece of derived state (the fork, its mesh, events) is a pure function of
// the sorted journal, which is what makes ingest order irrelevant.
type entry struct {
	ts   int64
	key  string
	kind int
	// BGP apply info (entryBGP only).
	bgpType string
	link    topology.LinkID
	// obs is the trouble observation this record contributes, in the
	// wire form listings render, fully resolved at ingest time so
	// applying it is pure; nil for entryMark.
	obs *core.WireObservation
}

// event is one correlated bucket of observations. Identity (id) is
// assigned at closure as a digest of the observation keys, so a replay
// that reproduces the same buckets reproduces the same IDs. The event's
// diagnosis lives in Processor.diags under that ID.
type event struct {
	firstTS, lastTS int64
	obs             []*core.WireObservation
	links           map[string]bool
	ases            map[int]bool

	// Set at closure. tplus is the T+ mesh a diagnosis of the event
	// reads; the sweep or listing after its diagnosis settles drops it.
	id       string
	tplus    *probe.Mesh
	closedAt time.Time
}

// diagnosis is the state of one event ID's diagnosis: running until the
// run returns, then settled with a result or an error message. Keyed by
// event ID, it survives journal resets: an event re-closed with the same
// observation set gets the same ID and finds its diagnosis there.
type diagnosis struct {
	running bool
	result  *core.WireResult
	errMsg  string
}

// probeBuild accumulates the hops of one in-flight streamed probe
// before its done line journals it.
type probeBuild struct {
	src, dst string
	srcAS    int
	hops     map[int]HopRecord
}

type metrics struct {
	ingested, rejected            *telemetry.Counter
	observations                  *telemetry.Counter
	eventsOpened, eventsClosed    *telemetry.Counter
	eventsDiagnosed, eventsFailed *telemetry.Counter
	noopRecords, sweepResets      *telemetry.Counter
	eventLag                      *telemetry.Histogram
}

func newMetrics(r *telemetry.Registry) *metrics {
	return &metrics{
		ingested:        r.Counter("stream.records_ingested"),
		rejected:        r.Counter("stream.records_rejected"),
		observations:    r.Counter("stream.observations"),
		eventsOpened:    r.Counter("stream.events_opened"),
		eventsClosed:    r.Counter("stream.events_closed"),
		eventsDiagnosed: r.Counter("stream.events_diagnosed"),
		eventsFailed:    r.Counter("stream.events_failed"),
		noopRecords:     r.Counter("stream.noop_records"),
		sweepResets:     r.Counter("stream.sweep_resets"),
		eventLag:        r.Histogram("stream.event_lag_ns", telemetry.DurationBuckets),
	}
}

// Processor is the per-scenario streaming state machine: it journals
// ingested records, keeps the overlay, the full mesh of its network fork
// (re-measured after each applied routing event), correlates trouble
// observations into events, and hands closed events to the Diagnoser.
//
// Determinism contract: after ingesting the same set of records — in any
// order, across any number of concurrent requests — and reaching
// quiescence, Events() renders byte-identical JSON. Out-of-order
// arrivals are handled by reset-and-replay: the journal is re-swept from
// a fresh fork of the healthy base, and each re-closed event finds its
// diagnosis, running or settled, in the table keyed by event ID.
type Processor struct {
	view      View
	window    int64
	idleClose int64
	diagnose  Diagnoser
	life      context.Context
	log       *slog.Logger
	met       *metrics

	mu   sync.Mutex
	fork *netsim.Network
	// overlay is the fork's current mesh. It is never written after it
	// is measured, so closed events share it as their T+.
	overlay *probe.Mesh
	// journal holds each accepted record once, sorted by (ts, key).
	journal []*entry
	cursor  int
	pending map[string]*probeBuild
	open    []*event
	closed  []*event
	// diags is the diagnosis of every event ID that has one; an ID
	// without an entry is pending (never started, or shed).
	diags   map[string]*diagnosis
	sensors map[topology.RouterID]bool
	stopped error
}

// NewProcessor builds a processor over one scenario view. It sweeps the
// journal on a fork of View.Net; every journal reset replaces that fork
// with a fresh one, which starts from View.Net's converged state.
func NewProcessor(cfg Config) *Processor {
	if cfg.WindowMS <= 0 {
		cfg.WindowMS = 2000
	}
	if cfg.IdleCloseMS <= 0 {
		cfg.IdleCloseMS = 5000
	}
	if cfg.IdleCloseMS < cfg.WindowMS {
		cfg.IdleCloseMS = cfg.WindowMS
	}
	if cfg.Life == nil {
		cfg.Life = context.Background()
	}
	p := &Processor{
		view:      cfg.View,
		window:    cfg.WindowMS,
		idleClose: cfg.IdleCloseMS,
		diagnose:  cfg.Diagnose,
		life:      cfg.Life,
		log:       cfg.Logger,
		met:       newMetrics(cfg.Telemetry),
		fork:      cfg.View.Net.Fork(),
		overlay:   cfg.View.Baseline,
		pending:   map[string]*probeBuild{},
		diags:     map[string]*diagnosis{},
		sensors:   map[topology.RouterID]bool{},
	}
	for _, s := range cfg.View.Sensors {
		p.sensors[s] = true
	}
	return p
}

// IngestTraceroute consumes one NDJSON traceroute body. The whole body
// is one atomic unit: records of one probe must arrive within one body
// (hops keyed by TTL make the assembly order-independent for well-formed
// feeds, but a probe split across concurrent bodies races its done
// line). Returns per-line accept/reject counts, the first per-line
// error, and any I/O error that aborted the scan.
func (p *Processor) IngestTraceroute(r io.Reader) (accepted, rejected int, firstErr, ioErr error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	accepted, rejected, firstErr, ioErr = forEachLine(r, p.ingestTraceLine)
	p.met.ingested.Add(int64(accepted))
	p.met.rejected.Add(int64(rejected))
	p.sweep()
	return accepted, rejected, firstErr, ioErr
}

// IngestBGP consumes one NDJSON BGP feed body, with the same contract
// as IngestTraceroute.
func (p *Processor) IngestBGP(r io.Reader) (accepted, rejected int, firstErr, ioErr error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	accepted, rejected, firstErr, ioErr = forEachLine(r, p.ingestBGPLine)
	p.met.ingested.Add(int64(accepted))
	p.met.rejected.Add(int64(rejected))
	p.sweep()
	return accepted, rejected, firstErr, ioErr
}

// sensorRef resolves a feed router reference to a sensor.
func (p *Processor) sensorRef(ref string) (topology.RouterID, error) {
	id, ok := p.view.Router(ref)
	if !ok {
		return 0, fmt.Errorf("stream: unknown router %q", ref)
	}
	if !p.sensors[id] {
		return 0, fmt.Errorf("stream: router %q is not a sensor", ref)
	}
	return id, nil
}

func (p *Processor) ingestTraceLine(line []byte) error {
	rec, err := DecodeTraceLine(line)
	if err != nil {
		return err
	}
	pb := p.pending[rec.Probe]
	if pb == nil {
		src, err := p.sensorRef(rec.Src)
		if err != nil {
			return err
		}
		if _, err := p.sensorRef(rec.Dst); err != nil {
			return err
		}
		pb = &probeBuild{src: rec.Src, dst: rec.Dst, srcAS: int(p.view.Topo.RouterAS(src)), hops: map[int]HopRecord{}}
		p.pending[rec.Probe] = pb
	} else if pb.src != rec.Src || pb.dst != rec.Dst {
		return fmt.Errorf("stream: probe %q changed endpoints mid-flight", rec.Probe)
	}
	if rec.Hop != nil {
		if _, dup := pb.hops[rec.Hop.TTL]; dup {
			return fmt.Errorf("stream: probe %q repeats ttl %d", rec.Probe, rec.Hop.TTL)
		}
		pb.hops[rec.Hop.TTL] = *rec.Hop
	}
	if !rec.Done {
		return nil
	}
	delete(p.pending, rec.Probe)
	e := &entry{
		ts:   rec.TS,
		key:  fmt.Sprintf("t:%012d:%s", rec.TS, rec.Probe),
		kind: entryMark,
	}
	if !rec.OK {
		e.kind = entryTrace
		e.obs = p.traceObservation(e.key, rec, pb)
	}
	p.insert(e)
	return nil
}

// traceObservation turns a failing completed probe into an observation:
// the suspect is where the probe died — the last responding hop's
// router/AS and the final observed link.
func (p *Processor) traceObservation(key string, rec *TraceRecord, pb *probeBuild) *core.WireObservation {
	ttls := make([]int, 0, len(pb.hops))
	for ttl := range pb.hops {
		ttls = append(ttls, ttl)
	}
	sort.Ints(ttls)
	names := make([]string, len(ttls))
	for i, ttl := range ttls {
		names[i] = pb.hops[ttl].Addr
		if rtr, ok := p.view.Topo.RouterByAddr(names[i]); ok {
			names[i] = rtr.Name
		}
	}
	obs := &core.WireObservation{
		Key:  key,
		TS:   rec.TS,
		Kind: "traceroute",
		Pair: rec.Src + "->" + rec.Dst,
	}
	if len(ttls) == 0 {
		// Died before the first hop: suspect the source's own AS.
		obs.Detail = "probe lost before first hop"
		obs.SuspectASes = []int{pb.srcAS}
		return obs
	}
	last := names[len(names)-1]
	obs.Detail = fmt.Sprintf("traceroute stopped after %d hops at %s", len(ttls), last)
	// Only the AS of the failure frontier — the last responding hop — is
	// a suspect, not every AS the probe crossed.
	lastHop := pb.hops[ttls[len(ttls)-1]]
	if rtr, ok := p.view.Topo.RouterByAddr(lastHop.Addr); ok && lastHop.AS == 0 {
		obs.SuspectASes = []int{int(rtr.AS)}
	} else if lastHop.AS > 0 {
		obs.SuspectASes = []int{lastHop.AS}
	}
	if len(ttls) >= 2 {
		obs.SuspectLinks = []string{linkKey(names[len(names)-2], last)}
	}
	return obs
}

func (p *Processor) ingestBGPLine(line []byte) error {
	rec, err := DecodeBGPLine(line)
	if err != nil {
		return err
	}
	if rec.Type == BGPKeepalive {
		p.insert(&entry{
			ts:   rec.TS,
			key:  fmt.Sprintf("b:%012d:keepalive", rec.TS),
			kind: entryMark,
		})
		return nil
	}
	aID, ok := p.view.Router(rec.A)
	if !ok {
		return fmt.Errorf("stream: unknown router %q", rec.A)
	}
	bID, ok := p.view.Router(rec.B)
	if !ok {
		return fmt.Errorf("stream: unknown router %q", rec.B)
	}
	link, ok := p.view.Topo.LinkBetween(aID, bID)
	if !ok {
		return fmt.Errorf("stream: no link between %q and %q", rec.A, rec.B)
	}
	lk := linkKey(p.view.Topo.Router(aID).Name, p.view.Topo.Router(bID).Name)
	key := fmt.Sprintf("b:%012d:%s:%s", rec.TS, rec.Type, lk)
	ases := []int{int(p.view.Topo.RouterAS(aID))}
	if as := int(p.view.Topo.RouterAS(bID)); as != ases[0] {
		ases = append(ases, as)
	}
	sort.Ints(ases)
	p.insert(&entry{
		ts:      rec.TS,
		key:     key,
		kind:    entryBGP,
		bgpType: rec.Type,
		link:    link.ID,
		obs: &core.WireObservation{
			Key:          key,
			TS:           rec.TS,
			Kind:         "bgp",
			Detail:       fmt.Sprintf("%s of link %s", rec.Type, lk),
			SuspectLinks: []string{lk},
			SuspectASes:  ases,
		},
	})
	return nil
}

func linkKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "~" + b
}

// insert places an entry at its sorted (ts, key) position. A key embeds
// its record's ts, so a duplicate, an idempotent replay of a record
// already journaled, lands on its own copy and is dropped. An insertion
// behind the sweep cursor triggers reset-and-replay: the sweep restarts
// from the healthy base so the applied order always equals the sorted
// order.
func (p *Processor) insert(e *entry) {
	idx := sort.Search(len(p.journal), func(i int) bool {
		j := p.journal[i]
		return j.ts > e.ts || (j.ts == e.ts && j.key >= e.key)
	})
	if idx < len(p.journal) && p.journal[idx].key == e.key {
		return
	}
	p.journal = append(p.journal, nil)
	copy(p.journal[idx+1:], p.journal[idx:])
	p.journal[idx] = e
	if idx < p.cursor {
		p.reset()
	}
}

// reset rewinds derived state to the healthy baseline for a full
// journal replay. The diagnosis table survives: events re-closed with the
// same observation set get the same ID and find their diagnosis, running
// or settled.
func (p *Processor) reset() {
	p.fork = p.view.Net.Fork()
	p.overlay = p.view.Baseline
	p.cursor = 0
	p.open = nil
	p.closed = nil
	p.met.sweepResets.Inc()
}

// sweep applies journal entries from the cursor to the end. Record time
// advances entry by entry; events idle past their closure deadline close
// before the entry that proves the idleness applies.
func (p *Processor) sweep() {
	for p.stopped == nil && p.cursor < len(p.journal) {
		e := p.journal[p.cursor]
		p.closeIdleBefore(e.ts)
		p.apply(e)
		p.cursor++
	}
	p.retryPending()
}

// apply executes one journal entry against the fork and overlay.
func (p *Processor) apply(e *entry) {
	switch e.kind {
	case entryMark:
		// Watermark only.
	case entryTrace:
		p.correlate(e.obs)
	case entryBGP:
		up := p.fork.LinkIsUp(e.link)
		if (e.bgpType == BGPWithdrawal && !up) || (e.bgpType == BGPAnnouncement && up) {
			// The feed repeated what the fork already knows: nothing to
			// re-measure, no new trouble to correlate.
			p.met.noopRecords.Inc()
			return
		}
		if e.bgpType == BGPWithdrawal {
			p.fork.FailLink(e.link)
		} else {
			p.fork.RestoreLink(e.link)
		}
		p.remesh()
		if p.stopped == nil {
			p.correlate(e.obs)
		}
	}
}

// remesh reconverges the fork and replaces the overlay with the fork's
// full mesh, measured at the network's own parallelism: T+ is a whole
// round, as the paper's troubleshooter reads it.
func (p *Processor) remesh() {
	if err := p.fork.ReconvergeCtx(p.life); err != nil {
		p.stop(err)
		return
	}
	m, err := p.fork.MeshCtx(p.life, p.view.Sensors)
	if err != nil {
		p.stop(err)
		return
	}
	p.overlay = m
}

// stop marks the processor wedged (only lifetime-context cancellation
// gets here); further sweeping halts but listing keeps working.
func (p *Processor) stop(err error) {
	p.stopped = err
	if p.log != nil {
		p.log.Warn("stream sweep stopped", "scenario", p.view.Scenario, "err", err)
	}
}

// correlate buckets an observation into the open events: it joins every
// open event within the window that shares a suspect link or AS
// (merging them into the first if there are several), or opens a new
// one.
func (p *Processor) correlate(o *core.WireObservation) {
	p.met.observations.Inc()
	var dst *event
	kept := p.open[:0]
	for _, ev := range p.open {
		switch {
		case o.TS-ev.lastTS > p.window || !eventShares(ev, o):
			kept = append(kept, ev)
		case dst == nil:
			dst = ev
			kept = append(kept, ev)
		default:
			for _, m := range ev.obs {
				eventAdd(dst, m)
			}
		}
	}
	p.open = kept
	if dst == nil {
		dst = &event{firstTS: o.TS, lastTS: o.TS, links: map[string]bool{}, ases: map[int]bool{}}
		p.open = append(p.open, dst)
		p.met.eventsOpened.Inc()
	}
	eventAdd(dst, o)
}

func eventShares(ev *event, o *core.WireObservation) bool {
	for _, l := range o.SuspectLinks {
		if ev.links[l] {
			return true
		}
	}
	for _, a := range o.SuspectASes {
		if ev.ases[a] {
			return true
		}
	}
	return false
}

func eventAdd(ev *event, o *core.WireObservation) {
	ev.obs = append(ev.obs, o)
	if o.TS < ev.firstTS {
		ev.firstTS = o.TS
	}
	if o.TS > ev.lastTS {
		ev.lastTS = o.TS
	}
	for _, l := range o.SuspectLinks {
		ev.links[l] = true
	}
	for _, a := range o.SuspectASes {
		ev.ases[a] = true
	}
}

// closeIdleBefore closes every open event whose idle deadline passed
// before record time ts.
func (p *Processor) closeIdleBefore(ts int64) {
	kept := p.open[:0]
	for _, ev := range p.open {
		if ev.lastTS+p.idleClose < ts {
			p.closeEvent(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	p.open = kept
}

// closeEvent seals an event: assign its digest ID, take the overlay as
// the T+ mesh unless the ID's diagnosis has settled (a journal reset
// re-closing a settled event), and start a diagnosis if the ID has none.
func (p *Processor) closeEvent(ev *event) {
	ev.id = p.digest(ev)
	if d := p.diags[ev.id]; d == nil || d.running {
		ev.tplus = p.overlay
	}
	ev.closedAt = telemetry.Now()
	p.closed = append(p.closed, ev)
	p.met.eventsClosed.Inc()
	p.startDiagnosis(ev)
}

// startDiagnosis spawns the diagnosis of a closed event whose ID has
// none, running or settled. Called with mu held.
func (p *Processor) startDiagnosis(ev *event) {
	if p.diagnose == nil || p.diags[ev.id] != nil {
		return
	}
	d := &diagnosis{running: true}
	p.diags[ev.id] = d
	go p.runDiagnosis(ev.id, d, ev.tplus, ev.closedAt)
}

// runDiagnosis executes the Diagnoser off the processor lock and
// settles d with the outcome. A retryable refusal deletes d from the
// table instead, which leaves the event pending.
func (p *Processor) runDiagnosis(id string, d *diagnosis, tplus *probe.Mesh, closedAt time.Time) {
	var (
		body  []byte
		retry bool
		err   error
	)
	if p.life.Err() != nil {
		// The processor's life context ended: don't start new work,
		// park the event as pending instead (the terminal state a
		// restarted processor would retry from).
		retry = true
	} else {
		body, retry, err = p.diagnose(id, p.view.Baseline, tplus)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if retry {
		delete(p.diags, id)
		return
	}
	d.running = false
	if err != nil {
		d.errMsg = err.Error()
	} else {
		var res core.WireResult
		if jerr := json.Unmarshal(body, &res); jerr != nil {
			d.errMsg = "decoding diagnosis: " + jerr.Error()
		} else {
			d.result = &res
		}
	}
	if d.errMsg != "" {
		p.met.eventsFailed.Inc()
	} else {
		p.met.eventsDiagnosed.Inc()
	}
	p.met.eventLag.Observe(telemetry.Since(closedAt).Nanoseconds())
}

// retryPending walks the closed events, with mu held, from sweeps and
// listings: it restarts the diagnosis of each pending one and drops the
// T+ mesh of each settled one, which only a retry would read.
func (p *Processor) retryPending() {
	for _, ev := range p.closed {
		switch d := p.diags[ev.id]; {
		case d == nil:
			p.startDiagnosis(ev)
		case !d.running:
			ev.tplus = nil
		}
	}
}

// digest derives the event's stable identity from its observation keys.
// It doubles as the event's trace ID ([0-9a-z-] only), which keeps
// /v1/events bodies byte-identical with tracing on or off.
func (p *Processor) digest(ev *event) string {
	ks := make([]string, len(ev.obs))
	for i, o := range ev.obs {
		ks[i] = o.Key
	}
	sort.Strings(ks)
	h := sha256.New()
	io.WriteString(h, p.view.Scenario)
	for _, k := range ks {
		io.WriteString(h, "\n"+k)
	}
	return "ev-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Events renders every event, closed and open, sorted by (first_ts,
// id). Listing then retries pending diagnoses, so a client polling the
// endpoint sees a shed event as pending and drives it to completion.
func (p *Processor) Events() []*core.WireEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.retryPending()
	evs := make([]*core.WireEvent, 0, len(p.closed)+len(p.open))
	for _, ev := range p.closed {
		evs = append(evs, p.wireEvent(ev))
	}
	for _, ev := range p.open {
		evs = append(evs, p.wireEvent(ev))
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].FirstTS != evs[j].FirstTS {
			return evs[i].FirstTS < evs[j].FirstTS
		}
		return evs[i].ID < evs[j].ID
	})
	return evs
}

// EventByID returns one event's wire form, or nil if no event (closed
// or open) has that ID right now. Like Events, it renders first and then
// retries pending diagnoses.
func (p *Processor) EventByID(id string) *core.WireEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.retryPending()
	for _, ev := range p.closed {
		if ev.id == id {
			return p.wireEvent(ev)
		}
	}
	for _, ev := range p.open {
		if p.digest(ev) == id {
			return p.wireEvent(ev)
		}
	}
	return nil
}

// wireEvent renders one event. Open events carry their digest-so-far as
// a provisional ID and the "open" status; a closed event's status,
// hypothesis and error come from its ID's diagnosis.
func (p *Processor) wireEvent(ev *event) *core.WireEvent {
	w := &core.WireEvent{
		ID:           ev.id,
		Scenario:     p.view.Scenario,
		Status:       core.EventPending,
		FirstTS:      ev.firstTS,
		LastTS:       ev.lastTS,
		Observations: make([]core.WireObservation, len(ev.obs)),
	}
	if ev.id == "" {
		w.ID, w.Status = p.digest(ev), core.EventOpen
	} else if d := p.diags[ev.id]; d != nil {
		switch {
		case d.running:
			w.Status = core.EventDiagnosing
		case d.errMsg != "":
			w.Status, w.Error = core.EventFailed, d.errMsg
		default:
			w.Status, w.Hypothesis = core.EventDiagnosed, d.result
		}
	}
	w.TraceID = w.ID
	for i, o := range ev.obs {
		w.Observations[i] = *o
	}
	sort.Slice(w.Observations, func(i, j int) bool {
		a, b := &w.Observations[i], &w.Observations[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.Key < b.Key
	})
	return w
}
