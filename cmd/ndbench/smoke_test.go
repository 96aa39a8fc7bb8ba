package main

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestSmoke runs both passes of every workload at a reduced size: a
// one-second window and, for diagnose-10k, a 600-sensor mesh.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs every workload")
	}
	// Layer metrics each workload must measure (non-zero) in the traced
	// pass.
	layers := map[string][]string{
		"serve-diagnose": {"netsim.reconverge_ms", "probe.mesh_ms", "experiment.adapt_ms", "core.diagnose_ms", "server.residual_ms"},
		"serve-tiny":     {"netsim.reconverge_ms", "probe.mesh_ms", "core.diagnose_ms", "core.encode_ms"},
		"stream-feed":    {"stream.ingest_trace_ms", "stream.ingest_bgp_ms", "stream.close_ms", "stream.events_list_ms", "core.diagnose_ms", "stream.events_retained"},
		"diagnose-10k":   {"experiment.generate_ms", "core.validate_ms", "core.expand_ms", "core.diagnose_ms", "core.expanded_links"},
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			o := opts{seed: 1, window: time.Second, trace: trace, sensors: 600}
			if trace {
				o.tracer = newTracer()
			}
			var out bytes.Buffer
			res, err := runWorkload(context.Background(), wl, o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed\n%s", wl.name, trace, res.Failed, res.Attempted, out.String())
			}
			want := e2eMetrics
			if trace {
				want = nil
				for _, name := range layers[wl.name] {
					want = append(want, metricDef{name: name})
				}
			}
			for _, m := range want {
				if res.Metrics[m.name].Value == 0 {
					t.Errorf("%s trace=%v: %s is 0\n%s", wl.name, trace, m.name, out.String())
				}
			}
		}
	}
}
