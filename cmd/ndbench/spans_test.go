package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 covered once
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 90, End: 120}, // reaches past the root: only 90..100 counts
		{ID: 5, Parent: 2, Req: 1, Name: "a1", Start: 12, End: 18},
		{ID: 6, Req: 2, Name: "a", Start: 200, End: 207},
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	byName := selfMS(spans)
	if len(byName["a"]) != 2 || byName["a"][0] != 14e-6 || byName["a"][1] != 7e-6 {
		t.Errorf("self times of a = %v ms", byName["a"])
	}
	// Request 1 spends 14+30 in a and b; request 2 spends 7 in a.
	if tot := perReqMS(spans, "a", "b"); len(tot) != 2 || tot[0] != 44e-6 || tot[1] != 7e-6 {
		t.Errorf("per-request totals = %v ms", tot)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.start(1, 0, "x"); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.end(0)
	tr := newTracer()
	outer := tr.start(7, 0, "outer")
	tr.timed(7, outer, "inner", func() {})
	tr.end(outer)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != 7 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(raw, &back); err != nil || len(back) != 2 || back[1].Name != "inner" {
		t.Fatalf("written spans = %s (%v)", raw, err)
	}
}
