package core

import (
	"encoding/json"
	"io"
)

// WireHyp is one hypothesis entry in the stable JSON wire form shared by
// the netdiagnoser CLI (-json) and the ndserve diagnosis service. The link
// is rendered with Display (logical-node keys collapse to the paper's
// "router(AS)" form), so the wire form is human-readable and diffable.
type WireHyp struct {
	Link string `json:"link"`
	Phys string `json:"phys,omitempty"`
	ASes []int  `json:"ases,omitempty"`
}

// WireResult is the stable JSON wire form of a diagnosis Result. The CLI
// and the ndserve HTTP API both emit exactly this shape through Encode, so
// a served diagnosis is byte-comparable to a one-shot CLI run. Telemetry
// spans are deliberately excluded: the wire form is identical whether or
// not the run was observed.
type WireResult struct {
	Algorithm   string    `json:"algorithm"`
	Hypothesis  []WireHyp `json:"hypothesis"`
	Unexplained int       `json:"unexplained_failures"`
	Iterations  int       `json:"iterations"`
	SuspectASes []int     `json:"suspect_ases,omitempty"`
}

// Wire converts the result into its wire form under the given algorithm
// name. Hypothesis order (sorted by link) and AS order (ascending) are
// inherited from Result, so the wire form is deterministic.
func (r *Result) Wire(algorithm string) *WireResult {
	w := &WireResult{
		Algorithm:   algorithm,
		Unexplained: r.UnexplainedFailures,
		Iterations:  r.Iterations,
	}
	for _, h := range r.Hypothesis {
		wh := WireHyp{Link: Display(h.Link.From) + "->" + Display(h.Link.To)}
		if h.PhysKnown {
			wh.Phys = h.Phys.String()
		}
		for _, a := range h.ASes {
			wh.ASes = append(wh.ASes, int(a))
		}
		w.Hypothesis = append(w.Hypothesis, wh)
	}
	for _, a := range r.ASes() {
		w.SuspectASes = append(w.SuspectASes, int(a))
	}
	return w
}

// Encode writes the canonical rendering of the wire form: two-space
// indented JSON with a trailing newline. Every producer (CLI, server) uses
// this single encoder so outputs are byte-identical.
func (w *WireResult) Encode(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w)
}

// TraceHeader is the request/response header carrying the fleet-wide
// request trace ID. The edge (front, or a worker hit directly) assigns an
// ID when the client did not send a valid one, forwards it to the owning
// shard, and echoes it on every response — including error envelopes. The
// ID travels in headers only: response bodies are byte-identical with
// tracing on or off.
const TraceHeader = "ND-Trace-Id"

// Stable machine-readable codes for WireError.Code. Every error the v1
// HTTP surface emits carries exactly one of these.
const (
	ErrBadRequest = "bad_request" // malformed body or invalid failure set
	ErrNotFound   = "not_found"   // unknown scenario
	ErrQueueFull  = "queue_full"  // admission queue shed the request
	ErrDraining   = "draining"    // server is shutting down
	ErrTimeout    = "timeout"     // computation or wait exceeded its deadline
	ErrCanceled   = "canceled"    // computation canceled mid-flight
	ErrInternal   = "internal"    // unexpected server-side failure
	ErrBadGateway = "bad_gateway" // shard front could not reach a backend
)

// MaxBatchItems caps the items of one POST /v1/diagnose/batch request.
// It is part of the v1 wire contract: the 400 envelope a too-large batch
// receives names this limit, so clients can split deterministically
// instead of probing for it.
const MaxBatchItems = 64

// WireError is the stable JSON error form of the v1 HTTP surface. Every
// error response is the envelope {"error": WireError}; retryable statuses
// (429, 502, 503) also carry RetryAfterS, mirroring the Retry-After header
// for clients that only look at bodies.
type WireError struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// NewWireError builds the WireError a response with the given HTTP status
// carries. The retryable statuses — 429 (shed), 502 (a shard the front
// could not reach) and 503 (draining) — get RetryAfterS 1, the value
// every v1 seam also sends as the Retry-After header.
func NewWireError(status int, code, msg string) *WireError {
	we := &WireError{Code: code, Message: msg}
	switch status {
	case 429, 502, 503:
		we.RetryAfterS = 1
	}
	return we
}

// WireObservation is one contributing observation of a streaming event:
// an ingested record that indicated trouble (a failing streamed
// traceroute, a withdrawal/announcement feed record). Key is the
// record's stable journal key, so replays list identical observations.
type WireObservation struct {
	Key          string   `json:"key"`
	TS           int64    `json:"ts"`
	Kind         string   `json:"kind"`
	Pair         string   `json:"pair,omitempty"`
	Detail       string   `json:"detail,omitempty"`
	SuspectLinks []string `json:"suspect_links,omitempty"`
	SuspectASes  []int    `json:"suspect_ases,omitempty"`
}

// Streaming event lifecycle states, as emitted on GET /v1/events.
const (
	EventOpen       = "open"       // still accepting correlated observations
	EventDiagnosing = "diagnosing" // closed, diagnosis in flight
	EventPending    = "pending"    // closed, diagnosis shed; retried on the next sweep or listing
	EventDiagnosed  = "diagnosed"  // closed with a hypothesis
	EventFailed     = "failed"     // closed, diagnosis failed terminally
)

// WireEvent is the stable JSON form of one correlated network event on
// the GET /v1/events surface. TraceID equals the event ID (a digest of
// the observation keys), so the body is byte-identical with tracing on
// or off and across replay parallelism.
type WireEvent struct {
	ID           string            `json:"id"`
	Scenario     string            `json:"scenario"`
	Status       string            `json:"status"`
	FirstTS      int64             `json:"first_ts"`
	LastTS       int64             `json:"last_ts"`
	TraceID      string            `json:"trace_id"`
	Observations []WireObservation `json:"observations"`
	Hypothesis   *WireResult       `json:"hypothesis,omitempty"`
	Error        string            `json:"error,omitempty"`
}

// EncodeWireEvents writes the canonical rendering of an event list: the
// same two-space-indented JSON + trailing newline convention as
// WireResult.Encode, so replayed feeds diff byte-for-byte.
func EncodeWireEvents(out io.Writer, evs []*WireEvent) error {
	if evs == nil {
		evs = []*WireEvent{}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(evs)
}

// EncodeWireEvent writes one event in the same canonical rendering.
func (e *WireEvent) Encode(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// Envelope renders the single-line {"error":{...}} form with a trailing
// newline — the exact bytes every v1 error response carries, whether
// standalone or embedded in a batch result slot (minus the newline there).
func (e *WireError) Envelope() []byte {
	b, err := json.Marshal(struct {
		Error *WireError `json:"error"`
	}{e})
	if err != nil {
		// Marshal of this shape cannot fail; keep a valid envelope anyway.
		b = []byte(`{"error":{"code":"internal","message":"error encoding failed"}}`)
	}
	return append(b, '\n')
}
