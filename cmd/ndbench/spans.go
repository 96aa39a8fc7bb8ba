package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program's own telemetry is never read).
// Times are nanoseconds since the tracer started. Parent is the ID of the
// enclosing span, 0 for a root; Req groups the spans of one operation.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// *tracer records nothing, so the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(req, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(req, parent int, name string, fn func()) {
	id := t.start(req, parent, name)
	fn()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// ID: its duration minus the part of its interval that its children
// cover. Overlapping children (concurrent calls under one parent) count
// once, and a child reaching outside its parent counts only inside it.
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfMS groups self times by span name, in milliseconds.
func selfMS(spans []Span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/1e6)
	}
	return out
}

// reportSelfTimes sets "<name>_ms" to the mean self time per call of each
// named span, and "<name>_p95_ms" to the 95th percentile for the names in
// p95. It returns the self times by span name.
func reportSelfTimes(r *report, spans []Span, names []string, p95 ...string) map[string][]float64 {
	self := selfMS(spans)
	for _, name := range names {
		r.set(name+"_ms", mean(self[name]), "ms", len(self[name]))
	}
	for _, name := range p95 {
		v, beyond := percentile(self[name], 95)
		r.set(name+"_p95_ms", v, "ms", beyond)
	}
	return self
}

// perReqMS sums the self times of the named spans per request and returns
// one total per request that has any of them, in milliseconds.
func perReqMS(spans []Span, names ...string) []float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	self := selfTimes(spans)
	byReq := map[int]int64{}
	var order []int
	for _, s := range spans {
		if !want[s.Name] {
			continue
		}
		if _, ok := byReq[s.Req]; !ok {
			order = append(order, s.Req)
		}
		byReq[s.Req] += self[s.ID]
	}
	out := make([]float64, len(order))
	for i, r := range order {
		out[i] = float64(byReq[r]) / 1e6
	}
	return out
}
