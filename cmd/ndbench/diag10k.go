package main

import (
	"bytes"
	"context"
	"runtime"
	"time"

	"netdiag"
	"netdiag/internal/core"
	"netdiag/internal/experiment"
)

// The diagnose-10k workload: ND-edge through core.RunCtx on the 10k-sensor
// synthetic mesh, one caller, with a garbage collection and a calibration
// between runs that are not timed. All of its work is in core.

// nd10kOptions is ND-edge at the machine's two processors.
func nd10kOptions() core.Options {
	return core.Options{LogicalLinks: true, UseReroutes: true, Parallelism: 2}
}

func runDiagnose10k(ctx context.Context, o opts, r *report) error {
	cfg := experiment.DefaultLargeMesh(o.sensors, o.seed)
	slug := netdiag.NDEdgeAlgo.Slug()
	if o.trace {
		return trace10k(ctx, cfg, slug, o, r)
	}
	var (
		m      *core.Measurements
		setups []float64
	)
	// Set-up is timed as timeSetups times the server's.
	var total, sinceC time.Duration
	for len(setups) < minSetups || (total < setupBudget && len(setups) < maxSetups) {
		if len(setups) == 0 || sinceC >= calibSetups {
			o.cal.calibrate()
			sinceC = 0
		}
		t0 := time.Now()
		m = experiment.GenerateLargeMesh(cfg)
		d := time.Since(t0)
		total += d
		sinceC += d
		setups = append(setups, d.Seconds())
	}
	// The first run is a warm-up: its wire bytes are the reference every
	// timed run must reproduce.
	res, err := core.RunCtx(ctx, m, nd10kOptions())
	if err != nil {
		return err
	}
	want, err := encode(res, slug, nil, 0)
	if err != nil {
		return err
	}
	if len(res.Hypothesis) == 0 {
		r.fail("warm-up run produced an empty hypothesis")
	}
	var lat []float64
	start := time.Now()
	for len(lat) < 3 || time.Since(start) < o.window {
		runtime.GC()
		o.cal.calibrate()
		t0 := time.Now()
		res, err := core.RunCtx(ctx, m, nd10kOptions())
		d := time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail("run %d: %v", len(lat), err)
			continue
		}
		lat = append(lat, d.Seconds()*1e3)
		got, err := encode(res, slug, nil, 0)
		switch {
		case err != nil:
			r.fail("run %d: encode: %v", len(lat), err)
		case len(res.Hypothesis) == 0:
			r.fail("run %d: empty hypothesis", len(lat))
		case !bytes.Equal(got, want):
			r.fail("run %d: wire bytes differ from the first run", len(lat))
		}
	}
	reportSetup(r, setups, o.cal)
	reportLatency(r, lat, o.cal)
	return nil
}

// trace10k times each public handle on the pipeline per iteration:
// generation, validation, the expand phase (through ExpandedSize, its
// only public handle), the diagnosis and the encoding.
func trace10k(ctx context.Context, cfg experiment.LargeMeshConfig, slug string, o opts, r *report) error {
	tr := o.tracer
	var shapes []shape
	var nodes, links []float64
	start := time.Now()
	for it := 1; it == 1 || time.Since(start) < o.window; it++ {
		runtime.GC()
		r.attempted++
		var m *core.Measurements
		tr.timed(it, 0, "experiment.generate", func() { m = experiment.GenerateLargeMesh(cfg) })
		var err error
		tr.timed(it, 0, "core.validate", func() { err = m.Validate() })
		if err != nil {
			r.fail("iteration %d: %v", it, err)
			continue
		}
		var n, l int
		tr.timed(it, 0, "core.expand", func() { n, l = core.ExpandedSize(m, false) })
		nodes, links = append(nodes, float64(n)), append(links, float64(l))
		var sh shape
		sh.failureSets, sh.rerouteSets = inputSets(m)
		var res *core.Result
		tr.timed(it, 0, "core.diagnose", func() { res, err = core.RunCtx(ctx, m, nd10kOptions()) })
		if err != nil {
			r.fail("iteration %d: %v", it, err)
			continue
		}
		sh.iterations, sh.hypLinks = res.Iterations, len(res.Hypothesis)
		shapes = append(shapes, sh)
		if _, err := encode(res, slug, tr, it); err != nil {
			r.fail("iteration %d: encode: %v", it, err)
		}
	}
	spans := tr.snapshot()
	reportSelfTimes(r, spans,
		[]string{"experiment.generate", "core.validate", "core.expand", "core.diagnose", "core.encode"},
		"core.diagnose")
	total := perReqMS(spans, "experiment.generate", "core.diagnose", "core.encode")
	r.set("pipeline.total_ms", mean(total), "ms", len(total))
	r.set("core.expanded_nodes", mean(nodes), "count", len(nodes))
	r.set("core.expanded_links", mean(links), "count", len(links))
	reportShapes(r, shapes)
	return nil
}
