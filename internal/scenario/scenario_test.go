package scenario

import (
	"bytes"
	"strings"
	"testing"

	"netdiag/internal/core"
	"netdiag/internal/topology"
)

const sampleJSON = `{
  "sensors": 2,
  "looking_glasses": {
    "100": {"1": [100, 150, 200]}
  },
  "before": [
    {"src":0,"dst":1,"ok":true,"hops":[
      {"addr":"10.0.0.1","as":100},
      {"addr":"*"},
      {"addr":"10.0.1.1","as":200}
    ]}
  ],
  "after": [
    {"src":0,"dst":1,"ok":false,"hops":[
      {"addr":"10.0.0.1","as":100}
    ]}
  ],
  "routing": {
    "asx": 100,
    "igp_down_links": [["10.0.0.1","10.0.0.2"]],
    "withdrawals": [{"at":"10.0.0.1","from":"10.0.1.1","dst_sensors":[1]}]
  }
}`

func TestReadAndConvert(t *testing.T) {
	sc, err := Read(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Sensors != 2 || len(sc.Before) != 1 || len(sc.After) != 1 {
		t.Fatalf("scenario = %+v", sc)
	}
	m, err := sc.Measurements()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Before) != 1 || len(m.Before[0].Hops) != 3 {
		t.Fatalf("measurements = %+v", m)
	}
	if !m.Before[0].Hops[1].Unidentified {
		t.Fatal("star hop must become unidentified")
	}
	if m.Before[0].Hops[0].AS != 100 {
		t.Fatal("AS lost in conversion")
	}

	ri := sc.RoutingInfo()
	if ri == nil || ri.ASX != 100 {
		t.Fatalf("routing = %+v", ri)
	}
	if len(ri.IGPDownLinks) != 1 || ri.IGPDownLinks[0] != (core.Link{From: "10.0.0.1", To: "10.0.0.2"}) {
		t.Fatalf("igp downs = %v", ri.IGPDownLinks)
	}
	if len(ri.Withdrawals) != 1 || ri.Withdrawals[0].At != "10.0.0.1" {
		t.Fatalf("withdrawals = %+v", ri.Withdrawals)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"sensors":1,"bogus":true}`)); err == nil {
		t.Fatal("unknown fields must be rejected")
	}
}

func TestMeasurementsValidation(t *testing.T) {
	sc := &Scenario{
		Sensors: 1,
		After:   []Path{{Src: 0, Dst: 5, OK: true, Hops: []Hop{{Addr: "a"}}}},
	}
	if _, err := sc.Measurements(); err == nil {
		t.Fatal("invalid sensor index must fail")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	sc, err := Read(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sc2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Sensors != sc.Sensors || len(sc2.Before) != len(sc.Before) {
		t.Fatal("round trip lost data")
	}
	if sc2.Routing == nil || sc2.Routing.ASX != sc.Routing.ASX {
		t.Fatal("round trip lost routing")
	}
}

func TestDumpTopology(t *testing.T) {
	f := topology.BuildFig2()
	d := DumpTopology(f.Topo)
	if len(d.ASes) != 5 {
		t.Fatalf("ASes = %d", len(d.ASes))
	}
	if len(d.Routers) != f.Topo.NumRouters() || len(d.Links) != f.Topo.NumLinks() {
		t.Fatalf("dump size mismatch: %d routers %d links", len(d.Routers), len(d.Links))
	}
	// Each neighbor pair appears exactly once.
	seen := map[[2]topology.ASN]bool{}
	for _, r := range d.Relationships {
		key := [2]topology.ASN{r.A, r.B}
		if seen[key] {
			t.Fatalf("relationship %v duplicated", key)
		}
		seen[key] = true
		if r.A >= r.B {
			t.Fatalf("relationships must be normalized a<b, got %v", key)
		}
	}
	if len(d.Relationships) != 4 {
		t.Fatalf("relationships = %d, want 4", len(d.Relationships))
	}
}

func TestWriteDOT(t *testing.T) {
	f := topology.BuildFig1()
	var buf bytes.Buffer
	if err := WriteDOT(&buf, f.Topo); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph netdiag {") || !strings.Contains(out, "subgraph cluster_as1") {
		t.Fatalf("DOT output malformed:\n%s", out)
	}
	if strings.Count(out, " -- ") != f.Topo.NumLinks() {
		t.Fatalf("DOT edge count mismatch")
	}
}

func TestScenarioLG(t *testing.T) {
	sc, err := Read(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	lg := sc.LG()
	if lg == nil {
		t.Fatal("scenario has looking glasses")
	}
	if !lg.Available(100) || lg.Available(999) {
		t.Fatal("availability must follow the table keys")
	}
	path, ok := lg.ASPath(100, 1)
	if !ok || len(path) != 3 || path[1] != 150 {
		t.Fatalf("ASPath = %v, %v", path, ok)
	}
	if _, ok := lg.ASPath(100, 0); ok {
		t.Fatal("unscripted destination must miss")
	}
	empty := &Scenario{}
	if empty.LG() != nil {
		t.Fatal("no table -> nil oracle")
	}
}

func TestFromMeasurementsRoundTrip(t *testing.T) {
	m := &core.Measurements{
		NumSensors: 2,
		Before: []*core.TracePath{{
			SrcSensor: 0, DstSensor: 1, OK: true,
			Hops: []core.Hop{
				{Node: "a", AS: 10},
				{Node: "*u1", Unidentified: true},
				{Node: "b", AS: 20},
			},
		}},
		After: []*core.TracePath{{
			SrcSensor: 0, DstSensor: 1, OK: false,
			Hops: []core.Hop{{Node: "a", AS: 10}},
		}},
	}
	ri := &core.RoutingInfo{
		ASX:          10,
		IGPDownLinks: []core.Link{{From: "a", To: "c"}},
		Withdrawals:  []core.Withdrawal{{At: "a", From: "b", DstSensors: []int{1}}},
	}
	sc := FromMeasurements(m, ri)
	var buf bytes.Buffer
	if err := sc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sc2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sc2.Measurements()
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Before) != 1 || len(m2.Before[0].Hops) != 3 {
		t.Fatalf("round trip lost hops: %+v", m2.Before)
	}
	if !m2.Before[0].Hops[1].Unidentified {
		t.Fatal("UH hop lost in round trip")
	}
	ri2 := sc2.RoutingInfo()
	if ri2 == nil || ri2.ASX != 10 || len(ri2.IGPDownLinks) != 1 || len(ri2.Withdrawals) != 1 {
		t.Fatalf("routing lost in round trip: %+v", ri2)
	}
	// Diagnosis on both sides must agree.
	ra, err := core.Run(m, core.Options{LogicalLinks: true, UseReroutes: true, Routing: ri})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.Run(m2, core.Options{LogicalLinks: true, UseReroutes: true, Routing: ri2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Hypothesis) != len(rb.Hypothesis) {
		t.Fatalf("diagnoses differ across the round trip: %d vs %d links",
			len(ra.Hypothesis), len(rb.Hypothesis))
	}
}
