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
// snapshot. Net is a private fork owned by the processor; Baseline is
// the healthy T− mesh and is never mutated (the overlay clones it).
type View struct {
	Scenario string
	Topo     *topology.Topology
	Sensors  []topology.RouterID
	// Prefixes holds the destination prefix per sensor index, for the
	// dirty-scope prefix check.
	Prefixes []bgp.Prefix
	Baseline *probe.Mesh
	Net      *netsim.Network
	// Router resolves a router reference (name or numeric ID) from the
	// feed against the scenario topology.
	Router func(ref string) (topology.RouterID, bool)
	// Workers bounds the re-probe fan-out (<= 0 means 1).
	Workers int
}

// Diagnoser diagnoses one closed event given its T−/T+ meshes and
// returns the wire-encoded result body. retry reports a transient
// refusal (admission queue full): the event parks as "pending" and is
// retried on the next sweep or listing. A non-nil err is terminal for
// this event (status "failed") but cached like a success, so replays
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
	// Life scopes re-probes and sweeps to the owning server's lifetime;
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
// piece of derived state (overlay mesh, events) is a pure function of
// the sorted journal, which is what makes ingest order irrelevant.
type entry struct {
	ts   int64
	key  string
	kind int
	// BGP apply info (entryBGP only).
	bgpType string
	link    topology.LinkID
	// obs is the trouble observation this record contributes, nil for
	// entryMark.
	obs *observation
}

// observation is one trouble-indicating record, fully resolved at
// ingest time so applying it is pure.
type observation struct {
	key          string
	ts           int64
	kind         string // "traceroute" | "bgp"
	pair         string
	detail       string
	suspectLinks []string // canonical "a~b", sorted
	suspectASes  []int    // sorted
}

// event is one correlated bucket of observations. Identity (id) is
// assigned at closure as a digest of the observation keys, so a replay
// that reproduces the same buckets reproduces the same IDs.
type event struct {
	firstTS, lastTS int64
	obs             []*observation
	links           map[string]bool
	ases            map[int]bool

	// Set at closure.
	id       string
	status   string
	tplus    *probe.Mesh
	closedAt time.Time

	// Diagnosis outcome.
	result *core.WireResult
	errMsg string
}

// diagOutcome is a finished diagnosis, cached by event ID so it
// survives journal resets (a reset recreates the event; the cached
// outcome re-attaches without recomputing).
type diagOutcome struct {
	result *core.WireResult
	errMsg string
}

// probeBuild accumulates the hops of one in-flight streamed probe
// before its done line journals it.
type probeBuild struct {
	src, dst       string
	srcIdx, dstIdx int
	hops           map[int]HopRecord
}

type metrics struct {
	ingested, rejected            *telemetry.Counter
	observations                  *telemetry.Counter
	eventsOpened, eventsClosed    *telemetry.Counter
	eventsDiagnosed, eventsFailed *telemetry.Counter
	pairsReprobed, pairsSkipped   *telemetry.Counter
	noopRecords, sweepResets      *telemetry.Counter
	eventLag                      *telemetry.Histogram
	probeM                        *probe.Metrics
}

func newMetrics(r *telemetry.Registry) *metrics {
	r.Derive("stream.dirty_pair_fraction", func(snap telemetry.Snapshot) float64 {
		return telemetry.Ratio(snap.Counters["stream.pairs_reprobed"], snap.Counters["stream.pairs_skipped"])
	})
	return &metrics{
		ingested:        r.Counter("stream.records_ingested"),
		rejected:        r.Counter("stream.records_rejected"),
		observations:    r.Counter("stream.observations"),
		eventsOpened:    r.Counter("stream.events_opened"),
		eventsClosed:    r.Counter("stream.events_closed"),
		eventsDiagnosed: r.Counter("stream.events_diagnosed"),
		eventsFailed:    r.Counter("stream.events_failed"),
		pairsReprobed:   r.Counter("stream.pairs_reprobed"),
		pairsSkipped:    r.Counter("stream.pairs_skipped"),
		noopRecords:     r.Counter("stream.noop_records"),
		sweepResets:     r.Counter("stream.sweep_resets"),
		eventLag:        r.Histogram("stream.event_lag_ns", telemetry.DurationBuckets),
		probeM:          probe.NewMetrics(r),
	}
}

// Processor is the per-scenario streaming state machine: it journals
// ingested records, maintains the T− mesh as a delta overlay (re-probing
// only dirty pairs after each applied routing event), correlates trouble
// observations into events, and hands closed events to the Diagnoser.
//
// Determinism contract: after ingesting the same set of records — in any
// order, across any number of concurrent requests — and reaching
// quiescence, Events() renders byte-identical JSON. Out-of-order
// arrivals are handled by reset-and-replay: the journal is re-swept from
// the baseline checkpoint, and cached diagnosis outcomes re-attach by
// event ID.
type Processor struct {
	view      View
	window    int64
	idleClose int64
	diagnose  Diagnoser
	life      context.Context
	log       *slog.Logger
	met       *metrics

	mu        sync.Mutex
	fork      *netsim.Network
	baseCP    netsim.Checkpoint
	overlay   *probe.Mesh
	journal   []*entry
	keys      map[string]bool
	cursor    int
	pending   map[string]*probeBuild
	open      []*event
	closed    []*event
	results   map[string]*diagOutcome
	inflight  map[string]bool
	sensorIdx map[topology.RouterID]int
	stopped   error
}

// NewProcessor builds a processor over one scenario view. It
// checkpoints the fork's healthy state once; every journal reset
// restores it.
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
	if cfg.View.Workers <= 0 {
		cfg.View.Workers = 1
	}
	p := &Processor{
		view:      cfg.View,
		window:    cfg.WindowMS,
		idleClose: cfg.IdleCloseMS,
		diagnose:  cfg.Diagnose,
		life:      cfg.Life,
		log:       cfg.Logger,
		met:       newMetrics(cfg.Telemetry),
		fork:      cfg.View.Net,
		overlay:   cfg.View.Baseline.Clone(),
		keys:      map[string]bool{},
		pending:   map[string]*probeBuild{},
		results:   map[string]*diagOutcome{},
		inflight:  map[string]bool{},
		sensorIdx: map[topology.RouterID]int{},
	}
	p.baseCP = p.fork.Checkpoint()
	for i, s := range cfg.View.Sensors {
		p.sensorIdx[s] = i
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

// sensorRef resolves a feed router reference to a sensor index.
func (p *Processor) sensorRef(ref string) (int, error) {
	id, ok := p.view.Router(ref)
	if !ok {
		return 0, fmt.Errorf("stream: unknown router %q", ref)
	}
	idx, ok := p.sensorIdx[id]
	if !ok {
		return 0, fmt.Errorf("stream: router %q is not a sensor", ref)
	}
	return idx, nil
}

func (p *Processor) ingestTraceLine(line []byte) error {
	rec, err := DecodeTraceLine(line)
	if err != nil {
		return err
	}
	pb := p.pending[rec.Probe]
	if pb == nil {
		srcIdx, err := p.sensorRef(rec.Src)
		if err != nil {
			return err
		}
		dstIdx, err := p.sensorRef(rec.Dst)
		if err != nil {
			return err
		}
		pb = &probeBuild{src: rec.Src, dst: rec.Dst, srcIdx: srcIdx, dstIdx: dstIdx, hops: map[int]HopRecord{}}
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
func (p *Processor) traceObservation(key string, rec *TraceRecord, pb *probeBuild) *observation {
	ttls := make([]int, 0, len(pb.hops))
	for ttl := range pb.hops {
		ttls = append(ttls, ttl)
	}
	sort.Ints(ttls)
	names := make([]string, len(ttls))
	ases := map[int]bool{}
	for i, ttl := range ttls {
		h := pb.hops[ttl]
		names[i] = h.Addr
		if rtr, ok := p.view.Topo.RouterByAddr(h.Addr); ok {
			names[i] = rtr.Name
			if h.AS == 0 {
				ases[int(rtr.AS)] = true
				continue
			}
		}
		if h.AS > 0 {
			ases[h.AS] = true
		}
	}
	obs := &observation{
		key:  key,
		ts:   rec.TS,
		kind: "traceroute",
		pair: rec.Src + "->" + rec.Dst,
	}
	switch {
	case len(ttls) == 0:
		// Died before the first hop: suspect the source's own AS.
		obs.detail = "probe lost before first hop"
		obs.suspectASes = []int{int(p.view.Topo.RouterAS(p.view.Sensors[pb.srcIdx]))}
	default:
		last := names[len(names)-1]
		obs.detail = fmt.Sprintf("traceroute stopped after %d hops at %s", len(ttls), last)
		// Only the ASes of the failure frontier — the last responding
		// hop — are suspects, not every AS the probe crossed.
		lastHop := pb.hops[ttls[len(ttls)-1]]
		frontier := map[int]bool{}
		if rtr, ok := p.view.Topo.RouterByAddr(lastHop.Addr); ok && lastHop.AS == 0 {
			frontier[int(rtr.AS)] = true
		} else if lastHop.AS > 0 {
			frontier[lastHop.AS] = true
		}
		for as := range frontier {
			obs.suspectASes = append(obs.suspectASes, as)
		}
		sort.Ints(obs.suspectASes)
		if len(ttls) >= 2 {
			obs.suspectLinks = []string{linkKey(names[len(names)-2], last)}
		}
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
	na, nb := p.view.Topo.Router(aID).Name, p.view.Topo.Router(bID).Name
	if nb < na {
		na, nb = nb, na
	}
	key := fmt.Sprintf("b:%012d:%s:%s~%s", rec.TS, rec.Type, na, nb)
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
		obs: &observation{
			key:          key,
			ts:           rec.TS,
			kind:         "bgp",
			detail:       fmt.Sprintf("%s of link %s~%s", rec.Type, na, nb),
			suspectLinks: []string{na + "~" + nb},
			suspectASes:  ases,
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

// insert places an entry at its sorted (ts, key) position. A duplicate
// key is an idempotent replay of a record already journaled and is
// dropped. An insertion behind the sweep cursor triggers
// reset-and-replay: the sweep restarts from the baseline checkpoint so
// the applied order always equals the sorted order.
func (p *Processor) insert(e *entry) {
	if p.keys[e.key] {
		return
	}
	p.keys[e.key] = true
	idx := sort.Search(len(p.journal), func(i int) bool {
		j := p.journal[i]
		return j.ts > e.ts || (j.ts == e.ts && j.key > e.key)
	})
	p.journal = append(p.journal, nil)
	copy(p.journal[idx+1:], p.journal[idx:])
	p.journal[idx] = e
	if idx < p.cursor {
		p.reset()
	}
}

// reset rewinds derived state to the healthy baseline for a full
// journal replay. The diagnosis cache and in-flight set survive: events
// re-closed with the same observation set get the same ID and re-attach
// their cached outcome.
func (p *Processor) reset() {
	p.fork.Restore(p.baseCP)
	p.overlay = p.view.Baseline.Clone()
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
			// re-probe, no new trouble to correlate.
			p.met.noopRecords.Inc()
			return
		}
		if e.bgpType == BGPWithdrawal {
			p.fork.FailLink(e.link)
		} else {
			p.fork.RestoreLink(e.link)
		}
		p.reprobe()
		if p.stopped == nil {
			p.correlate(e.obs)
		}
	}
}

// reprobe reconverges the fork and refreshes exactly the overlay pairs
// the delta could have moved (see netsim.DirtyScope). This is where the
// streaming plane earns its keep: a scoped withdrawal re-traces a
// fraction of the mesh, and a no-op delta re-traces nothing.
func (p *Processor) reprobe() {
	scope, err := p.fork.ReconvergeDirtyCtx(p.life)
	if err != nil {
		p.stop(err)
		return
	}
	var pairs [][2]int
	skipped := 0
	for i := range p.view.Sensors {
		for j := range p.view.Sensors {
			if i == j {
				continue
			}
			if scope.AffectsPath(p.overlay.Paths[i][j], p.view.Prefixes[j]) {
				pairs = append(pairs, [2]int{i, j})
			} else {
				skipped++
			}
		}
	}
	p.met.pairsReprobed.Add(int64(len(pairs)))
	p.met.pairsSkipped.Add(int64(skipped))
	if len(pairs) == 0 {
		return
	}
	err = probe.FillPairsCtx(p.life, p.overlay, pairs, p.view.Workers, func(i, j int) *probe.Path {
		return p.fork.Traceroute(p.view.Sensors[i], p.view.Sensors[j])
	}, p.met.probeM)
	if err != nil {
		p.stop(err)
	}
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
// (merging them if there are several), or opens a new one.
func (p *Processor) correlate(o *observation) {
	p.met.observations.Inc()
	var matches []int
	for i, ev := range p.open {
		if o.ts-ev.lastTS > p.window {
			continue
		}
		if eventShares(ev, o) {
			matches = append(matches, i)
		}
	}
	if len(matches) == 0 {
		ev := &event{firstTS: o.ts, lastTS: o.ts, links: map[string]bool{}, ases: map[int]bool{}}
		eventAdd(ev, o)
		p.open = append(p.open, ev)
		p.met.eventsOpened.Inc()
		return
	}
	dst := p.open[matches[0]]
	for _, i := range matches[1:] {
		src := p.open[i]
		dst.obs = append(dst.obs, src.obs...)
		if src.firstTS < dst.firstTS {
			dst.firstTS = src.firstTS
		}
		if src.lastTS > dst.lastTS {
			dst.lastTS = src.lastTS
		}
		for l := range src.links {
			dst.links[l] = true
		}
		for a := range src.ases {
			dst.ases[a] = true
		}
	}
	if len(matches) > 1 {
		kept := p.open[:0]
		drop := map[int]bool{}
		for _, i := range matches[1:] {
			drop[i] = true
		}
		for i, ev := range p.open {
			if !drop[i] {
				kept = append(kept, ev)
			}
		}
		p.open = kept
	}
	eventAdd(dst, o)
}

func eventShares(ev *event, o *observation) bool {
	for _, l := range o.suspectLinks {
		if ev.links[l] {
			return true
		}
	}
	for _, a := range o.suspectASes {
		if ev.ases[a] {
			return true
		}
	}
	return false
}

func eventAdd(ev *event, o *observation) {
	ev.obs = append(ev.obs, o)
	if o.ts < ev.firstTS {
		ev.firstTS = o.ts
	}
	if o.ts > ev.lastTS {
		ev.lastTS = o.ts
	}
	for _, l := range o.suspectLinks {
		ev.links[l] = true
	}
	for _, a := range o.suspectASes {
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

// closeEvent seals an event: assign its digest ID, snapshot the overlay
// as the T+ mesh, and start (or re-attach) its diagnosis.
func (p *Processor) closeEvent(ev *event) {
	ev.id = p.digest(ev)
	ev.tplus = p.overlay.Clone()
	ev.closedAt = telemetry.Now()
	p.closed = append(p.closed, ev)
	p.met.eventsClosed.Inc()
	p.startDiagnosis(ev)
}

// startDiagnosis resolves a closed event's outcome: adopt the cached
// one, piggyback on an in-flight run for the same ID, or spawn a new
// run. Called with mu held.
func (p *Processor) startDiagnosis(ev *event) {
	if out, ok := p.results[ev.id]; ok {
		p.adopt(ev, out)
		return
	}
	if p.diagnose == nil {
		ev.status = core.EventPending
		return
	}
	ev.status = core.EventDiagnosing
	if p.inflight[ev.id] {
		return
	}
	p.inflight[ev.id] = true
	go p.runDiagnosis(ev.id, ev.tplus, ev.closedAt)
}

// runDiagnosis executes the Diagnoser off the processor lock and
// records the outcome. A retryable refusal parks the event as pending;
// anything else is cached by event ID.
func (p *Processor) runDiagnosis(id string, tplus *probe.Mesh, closedAt time.Time) {
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
	delete(p.inflight, id)
	if retry {
		if ev := p.findClosed(id); ev != nil && ev.status == core.EventDiagnosing {
			ev.status = core.EventPending
		}
		return
	}
	out := &diagOutcome{}
	if err != nil {
		out.errMsg = err.Error()
	} else {
		var res core.WireResult
		if jerr := json.Unmarshal(body, &res); jerr != nil {
			out.errMsg = "decoding diagnosis: " + jerr.Error()
		} else {
			out.result = &res
		}
	}
	p.results[id] = out
	p.met.eventLag.Observe(telemetry.Since(closedAt).Nanoseconds())
	if ev := p.findClosed(id); ev != nil {
		p.adopt(ev, out)
	}
}

func (p *Processor) adopt(ev *event, out *diagOutcome) {
	if out.errMsg != "" {
		ev.status = core.EventFailed
		ev.errMsg = out.errMsg
		p.met.eventsFailed.Inc()
		return
	}
	ev.status = core.EventDiagnosed
	ev.result = out.result
	p.met.eventsDiagnosed.Inc()
}

func (p *Processor) findClosed(id string) *event {
	for _, ev := range p.closed {
		if ev.id == id {
			return ev
		}
	}
	return nil
}

// retryPending re-launches diagnosis for events parked by a shed. Called
// with mu held, from sweeps and listings.
func (p *Processor) retryPending() {
	if p.diagnose == nil {
		return
	}
	for _, ev := range p.closed {
		if ev.status == core.EventPending {
			p.startDiagnosis(ev)
		}
	}
}

// digest derives the event's stable identity from its observation keys.
// It doubles as the event's trace ID ([0-9a-z-] only), which keeps
// /v1/events bodies byte-identical with tracing on or off.
func (p *Processor) digest(ev *event) string {
	ks := make([]string, len(ev.obs))
	for i, o := range ev.obs {
		ks[i] = o.key
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
// a provisional ID and the "open" status.
func (p *Processor) wireEvent(ev *event) *core.WireEvent {
	id, status := ev.id, ev.status
	if id == "" {
		id, status = p.digest(ev), core.EventOpen
	}
	obs := append([]*observation(nil), ev.obs...)
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].ts != obs[j].ts {
			return obs[i].ts < obs[j].ts
		}
		return obs[i].key < obs[j].key
	})
	w := &core.WireEvent{
		ID:           id,
		Scenario:     p.view.Scenario,
		Status:       status,
		FirstTS:      ev.firstTS,
		LastTS:       ev.lastTS,
		TraceID:      id,
		Observations: make([]core.WireObservation, 0, len(obs)),
		Hypothesis:   ev.result,
		Error:        ev.errMsg,
	}
	for _, o := range obs {
		w.Observations = append(w.Observations, core.WireObservation{
			Key:          o.key,
			TS:           o.ts,
			Kind:         o.kind,
			Pair:         o.pair,
			Detail:       o.detail,
			SuspectLinks: o.suspectLinks,
			SuspectASes:  o.suspectASes,
		})
	}
	return w
}
