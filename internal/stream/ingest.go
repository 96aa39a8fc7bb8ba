// Package stream is the streaming diagnosis plane: live traceroute and
// BGP feed ingestion over NDJSON, per-scenario withdrawn links whose full
// mesh is re-measured after every applied routing event, an event
// correlator bucketing temporally/topologically related observations,
// and an event-driven diagnosis loop feeding the server's queue/flight
// path. Determinism is the contract throughout: the processor state is a
// pure function of the sorted record journal, so a recorded feed
// replayed at any ingest parallelism yields byte-identical event sets
// and hypotheses. The package has no HTTP: internal/server owns one
// Processor per scenario and serves the ingest and event endpoints.
package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Feed record kinds of the BGP ingestion endpoint.
const (
	BGPWithdrawal   = "withdrawal"   // link withdrawn: the named link goes down
	BGPAnnouncement = "announcement" // link (re)announced: the named link comes up
	BGPKeepalive    = "keepalive"    // no routing change; advances the record-time watermark
)

// maxLineBytes bounds one NDJSON line; longer lines are rejected without
// buffering them whole.
const maxLineBytes = 1 << 16

// HopRecord is one streamed traceroute hop: TTL-indexed, with the
// responding address and the per-hop RTT/AS annotations the sensor adds.
type HopRecord struct {
	TTL   int     `json:"ttl"`
	Addr  string  `json:"addr"`
	RTTMS float64 `json:"rtt_ms,omitempty"`
	AS    int     `json:"as,omitempty"`
}

// TraceRecord is one NDJSON line of POST /v1/ingest/traceroute. Hops of
// one probe arrive one line at a time, keyed by the sensor-chosen Probe
// ID; the line carrying Done closes the probe (OK tells whether the
// destination answered) and turns the accumulated hops into an
// observation stamped with the Done line's TS.
type TraceRecord struct {
	Probe string     `json:"probe"`
	TS    int64      `json:"ts"`
	Src   string     `json:"src"`
	Dst   string     `json:"dst"`
	Hop   *HopRecord `json:"hop,omitempty"`
	Done  bool       `json:"done,omitempty"`
	OK    bool       `json:"ok,omitempty"`
}

// BGPRecord is one NDJSON line of POST /v1/ingest/bgp: a withdrawal or
// announcement of the link between routers A and B (router names or
// numeric IDs), or a keepalive that only advances the watermark.
type BGPRecord struct {
	TS     int64  `json:"ts"`
	Type   string `json:"type"`
	A      string `json:"a,omitempty"`
	B      string `json:"b,omitempty"`
	Prefix string `json:"prefix,omitempty"`
}

// DecodeTraceLine parses and validates one traceroute NDJSON line.
// Validation is purely syntactic and deterministic: the same bytes are
// always accepted or rejected the same way, independent of any state.
func DecodeTraceLine(line []byte) (*TraceRecord, error) {
	var rec TraceRecord
	if err := strictUnmarshal(line, &rec); err != nil {
		return nil, err
	}
	if rec.Probe == "" {
		return nil, fmt.Errorf("stream: trace record missing probe id")
	}
	if rec.TS < 0 {
		return nil, fmt.Errorf("stream: trace record has negative ts %d", rec.TS)
	}
	if rec.Src == "" || rec.Dst == "" {
		return nil, fmt.Errorf("stream: trace record missing src/dst")
	}
	if rec.Src == rec.Dst {
		return nil, fmt.Errorf("stream: trace record src == dst %q", rec.Src)
	}
	if rec.Hop == nil && !rec.Done {
		return nil, fmt.Errorf("stream: trace record carries neither hop nor done")
	}
	if rec.Hop != nil {
		if rec.Hop.TTL < 1 || rec.Hop.TTL > 255 {
			return nil, fmt.Errorf("stream: hop ttl %d out of range [1,255]", rec.Hop.TTL)
		}
		if rec.Hop.Addr == "" {
			return nil, fmt.Errorf("stream: hop missing addr")
		}
		if rec.Hop.RTTMS < 0 {
			return nil, fmt.Errorf("stream: hop has negative rtt_ms")
		}
		if rec.Hop.AS < 0 {
			return nil, fmt.Errorf("stream: hop has negative as")
		}
	}
	return &rec, nil
}

// DecodeBGPLine parses and validates one BGP feed NDJSON line, with the
// same deterministic accept/reject contract as DecodeTraceLine.
func DecodeBGPLine(line []byte) (*BGPRecord, error) {
	var rec BGPRecord
	if err := strictUnmarshal(line, &rec); err != nil {
		return nil, err
	}
	if rec.TS < 0 {
		return nil, fmt.Errorf("stream: bgp record has negative ts %d", rec.TS)
	}
	switch rec.Type {
	case BGPWithdrawal, BGPAnnouncement:
		if rec.A == "" || rec.B == "" {
			return nil, fmt.Errorf("stream: bgp %s missing link endpoints a/b", rec.Type)
		}
		if rec.A == rec.B {
			return nil, fmt.Errorf("stream: bgp %s has a == b %q", rec.Type, rec.A)
		}
	case BGPKeepalive:
		if rec.A != "" || rec.B != "" {
			return nil, fmt.Errorf("stream: bgp keepalive must not name a link")
		}
	case "":
		return nil, fmt.Errorf("stream: bgp record missing type")
	default:
		return nil, fmt.Errorf("stream: unknown bgp record type %q", rec.Type)
	}
	return &rec, nil
}

// strictUnmarshal decodes one JSON value rejecting unknown fields and
// trailing garbage on the line.
func strictUnmarshal(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("stream: bad record: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("stream: trailing data after record")
	}
	return nil
}

// forEachLine streams r line by line (NDJSON over a chunked body),
// invoking fn for every non-blank line. fn's error is sticky per line —
// it is reported to the caller via the returned reject count and first
// error, not by aborting the stream — so one bad line never discards the
// valid records around it. An I/O or line-length error does abort: the
// rest of the body cannot be trusted to be line-aligned.
func forEachLine(r io.Reader, fn func(line []byte) error) (accepted, rejected int, firstErr error, ioErr error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			rejected++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		accepted++
	}
	return accepted, rejected, firstErr, sc.Err()
}
