package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"netdiag/internal/probe"
	"netdiag/internal/server"
	"netdiag/internal/stream"
	"netdiag/internal/topology"
)

// Input generators. Every generator is a pure function of the converged
// scenario snapshot and the seed, so one seed always yields the same
// bytes; the system under test receives only these generated inputs.

// diagReq is one generated POST /v1/diagnose request.
type diagReq struct {
	algo  string
	links [][2]string // router-name pairs, as fail_links carries them
	body  []byte
	key   string // canonical identity: algorithm plus the sorted link set
}

// Request mixes, as one block of algorithms dealt in a seeded order per
// block. serve-diagnose follows the operator's likely use: 40% the
// deployable ND-edge, 20% each the baseline and the two routing-aware
// variants. serve-tiny keeps to the measurement-only pair.
var (
	diagnoseMix = []string{"nd-edge", "nd-edge", "tomo", "nd-bgpigp", "nd-lg"}
	tinyMix     = []string{"tomo", "nd-edge"}
)

// deck deals a block's items in a fresh seeded order per block, so every
// stretch of inputs holds the block's proportions to within one block.
// Dealing algorithms, failure counts and failed links this way makes runs
// with different seeds differ in how the draws combine, not in how often
// an expensive draw comes up.
type deck[T any] struct {
	block []T
	rng   *rand.Rand
	hand  []T
}

func (d *deck[T]) next() T {
	if len(d.hand) == 0 {
		d.hand = append(d.hand, d.block...)
		d.rng.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	v := d.hand[0]
	d.hand = d.hand[1:]
	return v
}

// meshLinks returns the physical links the healthy mesh traverses, sorted
// by link ID: the links whose failure a sensor can notice.
func meshLinks(snap *server.Snapshot) []*topology.PhysLink {
	topo := snap.Scenario.Topo
	seen := map[topology.LinkID]bool{}
	var out []*topology.PhysLink
	for i := range snap.BeforeMesh.Paths {
		for _, p := range snap.BeforeMesh.Paths[i] {
			if p == nil {
				continue
			}
			for _, l := range p.Links() {
				pl, ok := topo.LinkBetween(l[0], l[1])
				if ok && !seen[pl.ID] {
					seen[pl.ID] = true
					out = append(out, pl)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// genRequests draws n diagnosis requests against scenario: each fails 1 to
// maxLinks distinct links of the healthy mesh (every count equally often)
// under an algorithm dealt from mix. With distinct set, no two requests
// share a failure set, so the server's in-flight coalescing never merges
// them.
func genRequests(snap *server.Snapshot, scenario string, seed int64, n, maxLinks int, mix []string, distinct bool) ([]diagReq, error) {
	links := meshLinks(snap)
	if len(links) < maxLinks {
		return nil, fmt.Errorf("scenario %s: %d mesh links, need %d", scenario, len(links), maxLinks)
	}
	topo := snap.Scenario.Topo
	rng := rand.New(rand.NewSource(seed))
	algos := &deck[string]{block: mix, rng: rng}
	counts := &deck[int]{rng: rng}
	for k := 1; k <= maxLinks; k++ {
		counts.block = append(counts.block, k)
	}
	failures := &deck[*topology.PhysLink]{block: links, rng: rng}
	seenSets := map[string]bool{}
	out := make([]diagReq, 0, n)
	for tries := 0; len(out) < n; {
		req := diagReq{algo: algos.next()}
		k := counts.next()
		var set string
		for {
			if tries++; tries > 100*n {
				return nil, fmt.Errorf("scenario %s: cannot draw %d distinct failure sets", scenario, n)
			}
			var picked []*topology.PhysLink
			for len(picked) < k {
				if l := failures.next(); !slices.Contains(picked, l) {
					picked = append(picked, l)
				}
			}
			sort.Slice(picked, func(i, j int) bool { return picked[i].ID < picked[j].ID })
			req.links = req.links[:0]
			var ids []string
			for _, l := range picked {
				req.links = append(req.links, [2]string{topo.Router(l.A).Name, topo.Router(l.B).Name})
				ids = append(ids, fmt.Sprint(l.ID))
			}
			if set = strings.Join(ids, ","); !distinct || !seenSets[set] {
				break
			}
		}
		seenSets[set] = true
		req.key = req.algo + "|" + set
		body, err := json.Marshal(server.DiagnoseRequest{Scenario: scenario, Algorithm: req.algo, FailLinks: req.links})
		if err != nil {
			return nil, err
		}
		req.body = body
		out = append(out, req)
	}
	return out, nil
}

// Feed body kinds, in the order one episode sends them.
const (
	bodyHealthy  = iota // a round of probes on the healthy network
	bodyWithdraw        // the withdrawal of one mesh link
	bodyFailing         // the same probes traced with the link down
	bodyClose           // keepalive that closes the withdrawal's events
	bodyAnnounce        // the link announced again
	bodyClose2          // keepalive that closes the announcement's event
	bodiesPerEpisode
)

// Feed shape. Record time (ms) and wall time are separate clocks: an
// episode spans episodeTS of record time and is sent over episodeWall of
// wall time, one body every bodyGap.
const (
	probesPerRound = 200
	episodeTS      = 20000
	episodeWall    = 500 * time.Millisecond
	bodyGap        = 80 * time.Millisecond
	eventWindowMS  = 2000
	idleCloseMS    = 5000
)

// feedBody is one NDJSON POST of the generated feed.
type feedBody struct {
	kind    int
	bgp     bool          // posted to /v1/ingest/bgp, else /v1/ingest/traceroute
	due     time.Duration // send time, from the start of the feed
	maxTS   int64         // largest record ts in the body
	records int
	data    []byte
}

// feedLinks is how many links of the healthy mesh the feed withdraws. How
// many events a withdrawal opens depends on the link and the probed pairs,
// and a burst of events queues for diagnosis, so a run's latencies follow
// its burst sizes. The feed therefore cycles through one fixed pool of
// links, probing one fixed set of pairs as a sensor overlay with fixed
// target lists does: every run holds the same bursts, and runs with
// different seeds differ in the order of withdrawals, the schedule's phase
// and the reported round-trip times.
const feedLinks = 10

// A pool link's withdrawal breaks between minFailedProbes and
// maxFailedProbes of the probed pairs, so every episode diagnoses a real
// outage. On the research scenario a withdrawal that breaks more
// partitions the topology and opens 10 to 35 events at once; they
// overflow the admission queue, and the shed-and-retry that follows made
// event latency swing by a quarter between runs of one feed. One that
// breaks none only reroutes, and its single event is a trivial diagnosis.
const (
	minFailedProbes = 1
	maxFailedProbes = 10
)

// feedEpisodes is how many episodes fit in window with drain to spare
// after the last, rounded down to whole passes over the link pool once
// there is room for one, so every run withdraws each pool link equally
// often.
func feedEpisodes(window, drain time.Duration) int {
	n := int((window - drain) / episodeWall)
	if n >= feedLinks {
		n -= n % feedLinks
	}
	return max(n, 1)
}

// genFeed renders episodes of the stream-feed workload. Each episode
// withdraws one link of the pool and probes the probesPerRound pairs
// before and after; the post-failure probes are traced on a private
// ground-truth fork with the link down, so the feed is what real sensors
// would report. Keepalives close each event by advancing record time past
// its idle deadline, and the announcement restores the link.
func genFeed(snap *server.Snapshot, seed int64, episodes int) ([]feedBody, error) {
	topo := snap.Scenario.Topo
	sensors := snap.Scenario.Sensors
	n := len(sensors)
	if n*(n-1) < probesPerRound {
		return nil, fmt.Errorf("feed: %d sensors give fewer than %d pairs", n, probesPerRound)
	}
	// Ordered pairs are numbered i*(n-1)+j', j' skipping i; the probed set
	// spreads evenly over that numbering.
	pairs := make([][2]int, probesPerRound)
	for k := range pairs {
		p := k * n * (n - 1) / probesPerRound
		i, j := p/(n-1), p%(n-1)
		if j >= i {
			j++
		}
		pairs[k] = [2]int{i, j}
	}
	pool, down, err := feedPool(snap, pairs)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	withdrawn := &deck[int]{rng: rng}
	for i := range pool {
		withdrawn.block = append(withdrawn.block, i)
	}
	name := func(r topology.RouterID) string { return topo.Router(r).Name }
	var out []feedBody
	for e := 0; e < episodes; e++ {
		base := int64(e) * episodeTS
		w := withdrawn.next()
		link := pool[w]
		var healthy, failing []byte
		hRecs, fRecs := 0, 0
		for k, pr := range pairs {
			src, dst := name(sensors[pr[0]]), name(sensors[pr[1]])
			b, c := probeLines(fmt.Sprintf("e%d-h%d", e, k), base+int64(k), src, dst, snap.BeforeMesh.Paths[pr[0]][pr[1]], rng)
			healthy, hRecs = append(healthy, b...), hRecs+c
			b, c = probeLines(fmt.Sprintf("e%d-f%d", e, k), base+2000+int64(k), src, dst, down[w][k], rng)
			failing, fRecs = append(failing, b...), fRecs+c
		}
		a, b := topo.Router(link.A).Name, topo.Router(link.B).Name
		lastObs := base + 2000 + probesPerRound - 1
		announceTS := base + 8000
		wall := time.Duration(e) * episodeWall
		ep := []feedBody{
			{kind: bodyHealthy, maxTS: base + probesPerRound - 1, records: hRecs, data: healthy},
			{kind: bodyWithdraw, bgp: true, maxTS: base + 1000, records: 1,
				data: bgpLine(stream.BGPRecord{TS: base + 1000, Type: stream.BGPWithdrawal, A: a, B: b})},
			{kind: bodyFailing, maxTS: lastObs, records: fRecs, data: failing},
			{kind: bodyClose, bgp: true, maxTS: lastObs + idleCloseMS + 1, records: 1,
				data: bgpLine(stream.BGPRecord{TS: lastObs + idleCloseMS + 1, Type: stream.BGPKeepalive})},
			{kind: bodyAnnounce, bgp: true, maxTS: announceTS, records: 1,
				data: bgpLine(stream.BGPRecord{TS: announceTS, Type: stream.BGPAnnouncement, A: a, B: b})},
			{kind: bodyClose2, bgp: true, maxTS: announceTS + idleCloseMS + 1, records: 1,
				data: bgpLine(stream.BGPRecord{TS: announceTS + idleCloseMS + 1, Type: stream.BGPKeepalive})},
		}
		// A seeded offset within one poll interval puts each closing body at
		// a random phase of the event poller's grid, so the wait for the
		// next poll averages out instead of adding the same amount to
		// every event.
		phase := time.Duration(rng.Int63n(int64(pollEvery)))
		for k := range ep {
			ep[k].due = wall + phase + time.Duration(k)*bodyGap
		}
		out = append(out, ep...)
	}
	return out, nil
}

// feedPool picks the withdrawal pool: for each of feedLinks evenly spaced
// starting points among the healthy mesh's links, the first link from
// there on (in ID order, wrapping) that is not yet in the pool and whose
// withdrawal breaks minFailedProbes to maxFailedProbes of the probed
// pairs. It returns, per pool link, the probed pairs' traces with that
// link down, taken on a private ground-truth fork.
func feedPool(snap *server.Snapshot, pairs [][2]int) ([]*topology.PhysLink, [][]*probe.Path, error) {
	links := meshLinks(snap)
	sensors := snap.Scenario.Sensors
	checked := map[int]bool{}
	var (
		pool []*topology.PhysLink
		down [][]*probe.Path
	)
	for i := 0; i < feedLinks; i++ {
		for at := i * len(links) / feedLinks; ; at = (at + 1) % len(links) {
			if checked[at] {
				if len(checked) == len(links) {
					return nil, nil, fmt.Errorf("feed: only %d of %d mesh links break %d to %d probed pairs, need %d",
						len(pool), len(links), minFailedProbes, maxFailedProbes, feedLinks)
				}
				continue
			}
			checked[at] = true
			fork := snap.Net.Fork()
			fork.FailLink(links[at].ID)
			if err := fork.Reconverge(); err != nil {
				return nil, nil, fmt.Errorf("feed: withdrawing link %d: %w", links[at].ID, err)
			}
			traces := make([]*probe.Path, len(pairs))
			failed := 0
			for k, pr := range pairs {
				traces[k] = fork.Traceroute(sensors[pr[0]], sensors[pr[1]])
				if !traces[k].OK {
					failed++
				}
			}
			if failed >= minFailedProbes && failed <= maxFailedProbes {
				pool, down = append(pool, links[at]), append(down, traces)
				break
			}
		}
	}
	return pool, down, nil
}

// probeLines renders one streamed traceroute: a line per hop, then the
// done line carrying the path's outcome.
func probeLines(id string, ts int64, src, dst string, p *probe.Path, rng *rand.Rand) ([]byte, int) {
	var buf []byte
	rtt := 0.0
	for k, h := range p.Hops {
		rtt += 0.5 + float64(rng.Intn(400))/100
		rec := stream.TraceRecord{Probe: id, TS: ts, Src: src, Dst: dst,
			Hop: &stream.HopRecord{TTL: k + 1, Addr: h.Addr, RTTMS: rtt}}
		buf = appendJSONLine(buf, rec)
	}
	buf = appendJSONLine(buf, stream.TraceRecord{Probe: id, TS: ts, Src: src, Dst: dst, Done: true, OK: p.OK})
	return buf, len(p.Hops) + 1
}

func bgpLine(rec stream.BGPRecord) []byte { return appendJSONLine(nil, rec) }

// appendJSONLine appends v as one NDJSON line. The record types hold only
// strings and numbers, so encoding cannot fail.
func appendJSONLine(buf []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(append(buf, b...), '\n')
}

// closingBody returns the index of the first body whose records reach past
// an event's idle deadline (lastTS + idleCloseMS): the processor closes
// the event, and starts its diagnosis, while ingesting that body. It
// returns -1 when no body does.
func closingBody(bodies []feedBody, lastTS int64) int {
	for i, b := range bodies {
		if b.maxTS > lastTS+idleCloseMS {
			return i
		}
	}
	return -1
}
