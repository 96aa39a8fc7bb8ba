package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"netdiag"
	"netdiag/internal/core"
	"netdiag/internal/telemetry"
)

// maxBatchItems bounds one batch request; it exists so a single POST
// cannot monopolize a worker for arbitrarily long. The value is part of
// the v1 wire contract, so it lives in core next to the other wire
// constants.
const maxBatchItems = core.MaxBatchItems

// BatchRequest is the POST /v1/diagnose/batch body: one scenario and
// algorithm, many failure sets. The whole batch runs as a single queued
// job over the scenario's warm snapshot — each item faults its own fork
// of the healthy network, so N diagnoses cost one admission and zero
// re-convergences of the healthy state.
type BatchRequest struct {
	Scenario string `json:"scenario"`
	// Algorithm applies to every item; empty means "tomo".
	Algorithm string `json:"algorithm,omitempty"`
	// Items are the failure sets to diagnose, answered in order.
	Items []BatchItem `json:"items"`
	// TimeoutMS caps the whole batch computation, like the single
	// endpoint's field caps one diagnosis.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchItem is one failure set within a batch.
type BatchItem struct {
	FailLinks   [][2]string `json:"fail_links,omitempty"`
	FailRouters []string    `json:"fail_routers,omitempty"`
}

// BatchResponse mirrors the response wire shape for decoding; the server
// itself assembles the response by byte concatenation (see computeBatch)
// so each slot's Body is bit-identical to the standalone response.
type BatchResponse struct {
	Scenario string      `json:"scenario"`
	Results  []BatchSlot `json:"results"`
}

// BatchSlot is one item's outcome: the HTTP status the single endpoint
// would have answered, and its exact body (minus the trailing newline).
type BatchSlot struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

func (s *Server) handleDiagnoseBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, core.ErrDraining, "draining")
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, core.ErrBadRequest, "invalid request body: "+err.Error())
		return
	}
	algo, err := parseAlgo(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, core.ErrBadRequest, err.Error())
		return
	}
	if !s.reg.Has(req.Scenario) {
		writeError(w, http.StatusNotFound, core.ErrNotFound, fmt.Sprintf("unknown scenario %q", req.Scenario))
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, core.ErrBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest, core.ErrBadRequest,
			fmt.Sprintf("batch has %d items, limit is %d", len(req.Items), maxBatchItems))
		return
	}
	acc := accessFrom(r.Context())
	acc.scenario, acc.algo = req.Scenario, algo.Slug()

	// The flight key is the ordered item identity: two batches asking the
	// same items in the same order coalesce into one computation.
	keys := make([]string, len(req.Items))
	for i, it := range req.Items {
		keys[i] = canonicalKey(req.Scenario, algo, it.FailLinks, it.FailRouters)
	}
	key := "batch|" + strings.Join(keys, "||")
	s.serveQueued(w, r, acc, key, req.TimeoutMS, func(ctx context.Context) ([]byte, error) {
		return s.computeBatch(ctx, &req, algo)
	})
}

// computeBatch diagnoses every item on its own fork of the snapshot's
// healthy network: fork, apply faults, diagnose. The response is
// assembled by raw concatenation so each slot's body bytes are exactly
// what the single endpoint would have sent (sans trailing newline) — a
// failed item occupies its slot with the single endpoint's error envelope
// and status instead of failing the batch.
func (s *Server) computeBatch(ctx context.Context, req *BatchRequest, algo netdiag.Algorithm) ([]byte, error) {
	snap, err := s.store.Get(ctx, req.Scenario)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(`{"scenario":`)
	name, err := json.Marshal(req.Scenario)
	if err != nil {
		return nil, err
	}
	buf.Write(name)
	buf.WriteString(`,"results":[`)
	tr := telemetry.TraceFromContext(ctx)
	for i := range req.Items {
		if i > 0 {
			buf.WriteByte(',')
		}
		item := &req.Items[i]
		endItem := tr.StartIteration("item", i+1)
		body, err := func() ([]byte, error) {
			fork := snap.Net.Fork()
			if err := applyFaults(snap, fork, item.FailLinks, item.FailRouters); err != nil {
				return nil, err
			}
			return s.diagnoseFork(ctx, snap, fork, algo)
		}()
		endItem()
		status := http.StatusOK
		if err != nil {
			var code string
			status, code = statusFor(err)
			body = core.NewWireError(status, code, err.Error()).Envelope()
		}
		fmt.Fprintf(&buf, `{"status":%d,"body":`, status)
		buf.Write(bytes.TrimSuffix(body, []byte("\n")))
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")
	return buf.Bytes(), nil
}
