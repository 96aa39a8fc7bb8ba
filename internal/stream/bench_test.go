package stream

import (
	"strings"
	"testing"

	"netdiag/internal/telemetry"
)

// The stream benchmarks report NDJSON ingest throughput for both
// endpoints (records/s), the full event-loop cost of one withdrawal ->
// correlation -> diagnosis cycle, and the event-close-to-diagnosis
// latency as a custom metric.

// benchProcessor builds a fresh fig2 processor over its own registry.
func benchProcessor(b *testing.B, reg *telemetry.Registry) *Processor {
	b.Helper()
	view, _ := fig2View(b, 1)
	return NewProcessor(Config{
		View:      view,
		Diagnose:  stubDiagnoser(),
		Telemetry: reg,
	})
}

// benchTraceBody renders nProbes successful probes (the steady-state
// fast path: hop lines accumulate, the done line lands a watermark).
func benchTraceBody(b *testing.B, nProbes int) (body string, records int) {
	b.Helper()
	view, f2 := fig2View(b, 1)
	var lines []string
	for i := 0; i < nProbes; i++ {
		id := "p" + string(rune('a'+i%26)) + "-" + itoa(i)
		ts := int64(1000 + i)
		lines = append(lines, traceLines(f2.Topo, view.Router, id, ts, "s1", "s2", true, "a1", "a2", "x1")...)
	}
	return strings.Join(lines, "\n") + "\n", len(lines)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

// BenchmarkIngestTraceroute measures NDJSON ingest throughput of the
// traceroute endpoint on successful probes.
func BenchmarkIngestTraceroute(b *testing.B) {
	body, records := benchTraceBody(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchProcessor(b, telemetry.New())
		b.StartTimer()
		if _, rejected, firstErr, ioErr := p.IngestTraceroute(strings.NewReader(body)); rejected != 0 || ioErr != nil {
			b.Fatalf("rejected=%d firstErr=%v ioErr=%v", rejected, firstErr, ioErr)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkIngestBGP measures the BGP endpoint with real routing churn:
// each withdrawal/announcement toggles the fig2 backup link, forcing a
// delta reconvergence and a full re-mesh of the fork per record.
func BenchmarkIngestBGP(b *testing.B) {
	const toggles = 32
	var lines []string
	for i := 0; i < toggles; i++ {
		typ := BGPWithdrawal
		if i%2 == 1 {
			typ = BGPAnnouncement
		}
		lines = append(lines, bgpLine(int64(1000+i*10000), typ, "y3", "y4"))
	}
	body := strings.Join(lines, "\n") + "\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchProcessor(b, telemetry.New())
		b.StartTimer()
		if _, rejected, firstErr, ioErr := p.IngestBGP(strings.NewReader(body)); rejected != 0 || ioErr != nil {
			b.Fatalf("rejected=%d firstErr=%v ioErr=%v", rejected, firstErr, ioErr)
		}
	}
	b.ReportMetric(float64(toggles)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkEventLoop runs one full streaming cycle — withdrawal,
// correlated failing trace, keepalive closing the event, stub
// diagnosis — and reports the event-close-to-diagnosis latency the
// cycle produced.
func BenchmarkEventLoop(b *testing.B) {
	reg := telemetry.New()
	view, f2 := fig2View(b, 1)
	failing := traceLines(f2.Topo, view.Router, "bench", 2000, "s1", "s2", false, "a1", "a2", "x1", "x2", "y1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchProcessor(b, reg)
		b.StartTimer()
		ingestBGP(b, p, bgpLine(1000, BGPWithdrawal, "y3", "y4"))
		ingestTrace(b, p, failing...)
		ingestBGP(b, p, bgpLine(20000, BGPKeepalive, "", ""))
		if evs := quiesce(b, p); len(evs) == 0 {
			b.Fatal("no event produced")
		}
	}
	lag := reg.Histogram("stream.event_lag_ns", telemetry.DurationBuckets)
	if n := lag.Count(); n > 0 {
		b.ReportMetric(float64(lag.Sum())/float64(n), "event-lag-ns")
	}
}
