// Command ndbench is the repository's benchmark: every performance claim
// about netdiag is stated in its metrics. It drives four seeded workloads
// through the real layers — an in-process ndserve server (server.New)
// served over loopback TCP, or core.RunCtx directly — checks that every
// output is correct, and prints named metrics with their units and sample
// counts. BENCHMARK.json at the repository root lists the workloads and
// metrics and fixes the bound by which each end-to-end metric may worsen.
//
// # Running
//
// From the repository root:
//
//	bash cmd/ndbench/run.sh --workload serve-diagnose --seed 1 --seconds 25 --trace 0
//
// run.sh builds the program from the checkout's sources into
// $CARGO_TARGET_DIR (default .bench_build), with the Go build cache and
// temporary files there too, and runs it. ndbench is a module of its own
// (go.mod here replaces netdiag with the repository root), so the root's
// go build ./... and go test ./... leave it out; its tests run with
//
//	cd cmd/ndbench && go test ./...
//
// Flags:
//
//	-workload W   serve-diagnose, serve-tiny, stream-feed, diagnose-10k, or
//	              all: each workload in a child process of its own
//	-seed N       input seed (default 1)
//	-seconds S    measured window of one run (default 25, as
//	              BENCHMARK.json runs it)
//	-trace 0|1    0 is the end-to-end pass, 1 the traced per-layer pass
//	-spans FILE   with -trace 1, write every recorded span to FILE (run.sh
//	              passes .bench_build/spans.json)
//	-json FILE    append the run's result record to FILE
//	-compare A B  compare two -json files (see Comparing)
//
// Each metric prints as one line: workload, name, value, unit and n, the
// sample count (for a percentile beyond the median, the samples beyond
// it). Lines not on the result line add context: tail percentiles,
// diagnose_rps, ingest latency, feed lateness and error_rate. The last
// line is the result, one JSON object:
//
//	{"correct":true,"attempted":650,"failed":0,"metrics":{"latency_p50_ms":{"value":61.2,"unit":"ms"},...}}
//
// attempted counts the operations (requests, bodies and events, large-mesh
// runs); failed counts those that failed or whose output was wrong. Any
// failure makes correct false and the exit code 1.
//
// # Workloads
//
// Load comes from this one process with at most two connections: the
// machine the numbers below come from has two processors. Each run's seed
// drives its inputs, and the system under test receives only the generated
// inputs.
//
// serve-diagnose: closed loop, two clients, POST /v1/diagnose against
// research-1, the paper-scale research topology of topology seed 1 with 40
// sensors (1,560 sensor pairs). Each request fails one to three links the
// healthy mesh traverses, under nd-edge 40%, tomo 20%, nd-bgpigp 20% or
// nd-lg 20%. The seed deals the algorithms, failure counts and links from
// shuffled decks, so every run holds the mix's proportions; the list of 480
// requests has distinct failure sets and is cycled, so nothing coalesces.
// Ten untimed requests warm up. Why: this is the operator's main use, and
// every pipeline layer does real work (reconverge, mesh, adapt, core), so
// a gain in any one layer shows, diluted.
//
// serve-tiny: the same closed loop against fig2 (three sensors), one or
// two link failures under tomo or nd-edge; repeated requests occur, so
// coalescing is exercised. 200 untimed requests warm up. Why: a request
// does about 0.25 ms of pipeline work, so the serving tier (HTTP, JSON,
// admission, coalescing, encoding) dominates. A core or netsim
// optimisation must show no change here.
//
// stream-feed: open loop on research-1. One connection posts NDJSON bodies
// on a fixed schedule; a second lists GET /v1/events?scenario= every 20 ms.
// An episode starts every 500 ms and sends six bodies 80 ms apart: a
// healthy round of 200 probes, the withdrawal of one link, the same probes
// traced with the link down on a ground-truth netsim fork, a keepalive
// that closes the withdrawal's events, the announcement that restores the
// link, and a keepalive that closes the announcement's event. The feed
// withdraws each link of a fixed pool of ten once per pass, in a seeded
// order: links that break one to ten of the 200 probed pairs, so each
// episode opens two to five events. (Withdrawals that partition the
// topology open up to 35 events at once, overflow the admission queue,
// and made event latency swing by a quarter between runs of one feed; the
// pool leaves them out.) The probed pairs are fixed, as a sensor overlay's
// target lists are. A 25-second window feeds four passes (40 episodes,
// 20 s), then waits up to 5 s for the last events. Why: the live-feed use.
// netsim and probe work as dirty-scoped reconvergence and partial re-probe
// rather than full meshes, diagnosis runs asynchronously through the
// queue, ingest writes run beside event listings that take the same
// processor lock, and the retained event list grows over the run.
//
// diagnose-10k: one caller runs ND-edge through core.RunCtx with
// Parallelism 2 on experiment.GenerateLargeMesh(DefaultLargeMesh(10000,
// seed)), with an untimed garbage collection before each run, after one
// untimed warm-up run, until the window ends. Why: it is the scale target,
// and all its work is in core — a core gain shows undiluted here, and
// serve-tiny shows it absent there.
//
// research-1 does not follow the seed: across topology seeds the cost of a
// request moved by about 15%, more than the changes the benchmark has to
// resolve. The seed instead draws the failure sets and their order
// (serve-*), the withdrawal order, schedule phase and round-trip times
// (stream-feed), and the large mesh's failed hubs and destinations
// (diagnose-10k).
//
// # Reference speed
//
// The two timings on the result line, setup_s and latency_p50_ms, are
// given at a reference speed, because the machine's own speed drifts by
// more than the bounds (see Measured spread). Whenever the load is paused
// — before the run, every 200 ms of set-up, every second of a serving
// window, before each diagnose-10k run, and in stream-feed whenever every
// event is settled and the next body is at least 40 ms away — both load
// goroutines run a fixed kernel that shares no code with netdiag (a sort,
// map lookups and a 4 MiB pointer chase, see speed.go) three times. A
// timing is reported as its wall-clock value × 5 ms ÷ the median of the
// run's kernel times; 5 ms is about that median on the machine the bounds
// were set on. The kernel's median (calibration_ms) and the wall-clock
// latency median (latency_wall_p50_ms) are printed beside them. A change
// to netdiag cannot move the kernel, so the ratio of two commits' latencies
// is what it would be on a machine of steady speed.
//
// # End-to-end metrics (-trace 0)
//
// setup_s (s, lower is better): the median of repeated set-ups in one run,
// at the reference speed. serve-* and stream-feed: from server.New on a
// fresh registry until WarmAll returns (stream-feed: and the scenario's
// stream processor is open). diagnose-10k: GenerateLargeMesh. Each is
// repeated at least five times and then while under one second, up to
// 1000 times.
//
// latency_p50_ms (ms, lower): the median over the window of one operation
// as its user sees it, at the reference speed. serve-*: the client's round trip of POST
// /v1/diagnose. stream-feed: from the due time of the body that closes an
// event — the first body with a record past the event's last_ts plus the
// 5 s idle close — to the first poll that shows the event diagnosed.
// diagnose-10k: one core.RunCtx.
//
// rss_peak_mb (MiB, lower): the process's peak resident set at exit
// (getrusage's maxrss, which is VmHWM). It includes the benchmark's own
// inputs, so it compares commits, not deployments.
//
// The p90 and p95 latencies are printed but not gated: on the two-processor
// machine their spread between runs of one commit ran from 14% to 36%, near
// or beyond the largest bound (25%) a regression gate can use. diagnose_rps (serve-*),
// ingest_p50_ms and ingest_p95_ms (stream-feed: POST latency from the
// body's due time) and harness.feed_late_* (how far the feeder ran behind)
// are printed likewise.
//
// # Per-layer metrics (-trace 1)
//
// The traced pass records a span, from this program's own code, around
// each call into a layer's public functions: name, start, end, parent and
// operation. Spans stay in memory and are written at exit. A metric ending
// in _ms is the mean self time per call (the span's duration minus what
// its children cover), so a workload's layer times add up; _p95_ms is the
// 95th percentile per call. The program's own spans (Result.Telemetry,
// /debug/traces) are not read. A layer a workload never calls reads 0.
//
// serve-*: the two clients walk the same request list, alternating request
// by request between an untraced HTTP round trip and a traced run straight
// through the layers without HTTP, so both halves see the same machine.
// Every traced serve-tiny run is checked against the precomputed bytes,
// like the served ones.
//
// stream-feed: the same feed on the same schedule goes into a
// stream.Processor built from the Store snapshot, whose diagnoser is this
// program's ND-edge composed of the public calls below, at most two at a
// time.
//
// diagnose-10k: each iteration times the generator, validation, the
// expand phase and the diagnosis.
//
// The layer metrics, the call each one times, and the end-to-end metric
// each should move (workload in brackets):
//
//	netsim.fork_ms           Network.Fork + FailLink       latency [serve-tiny]
//	netsim.reconverge_ms     Network.ReconvergeCtx         latency [serve-diagnose]; none on diagnose-10k
//	probe.mesh_ms            Network.MeshCtx               latency [serve-diagnose]
//	probe.pairs_traced       pairs traced per request      count
//	probe.pairs_changed_ratio  traced pairs whose path      a dirty-scoped mesh would cut probe.mesh_ms
//	                         changed ÷ pairs traced        by about (1 − ratio) [serve-diagnose]
//	experiment.adapt_ms      ToMeasurementsMapped,         latency [serve-diagnose, stream-feed]
//	                         AdaptIGPDowns,
//	                         ObserveWithdrawals,
//	                         AdaptWithdrawals,
//	                         lookingglass.New
//	experiment.generate_ms   GenerateLargeMesh             setup_s [diagnose-10k]
//	core.validate_ms         Measurements.Validate         latency [diagnose-10k]
//	core.expand_ms           core.ExpandedSize (expand,    latency [diagnose-10k] fully, [serve-diagnose]
//	                         then count the graph)         by about a third; nothing on serve-tiny
//	core.diagnose_ms         Diagnoser.Diagnose or         latency [diagnose-10k, serve-diagnose, stream-feed]
//	                         core.RunCtx
//	core.encode_ms           Result.Wire(..).Encode        latency [serve-tiny]
//	core.expanded_nodes/_links, core.failure_sets, core.reroute_sets,
//	core.iterations, core.hypothesis_links
//	                         per-diagnosis means           counts: they tell a change of input shape
//	                                                       from a change of speed
//	pipeline.total_ms        sum of the layer calls per    —
//	                         operation
//	server.residual_ms       untraced HTTP mean latency    latency and diagnose_rps [serve-tiny],
//	                         − pipeline.total_ms: HTTP,    where it is most of a request
//	                         JSON, admission, coalescing,
//	                         response write, tracing
//	stream.ingest_trace_ms   Processor.IngestTraceroute    ingest latency [stream-feed]
//	stream.trace_records_per_s  records ÷ ingest time      ingest latency [stream-feed]
//	stream.ingest_bgp_ms     Processor.IngestBGP on        ingest p95 [stream-feed]
//	                         withdrawals/announcements,
//	                         with their reconverge and
//	                         re-probe
//	stream.close_ms          IngestBGP on the keepalives   latency [stream-feed]
//	stream.events_list_ms    Processor.Events, which       latency and ingest p95 [stream-feed]
//	                         holds the ingest lock
//	stream.events_retained   events listed at the end      —
//	stream.diag_wait_ms      closing ingest's return to    latency [stream-feed]
//	                         the diagnosis getting a slot
//	stream.events_per_change events ÷ routing changes fed  —
//	harness.feed_late_*      feeder lateness, p95 and max  validity: near 500 ms the rate is above capacity
//
// On serve-diagnose the per-request layer means add up to
// pipeline.total_ms, and pipeline.total_ms plus server.residual_ms is the
// untraced mean round trip (printed as http_latency_mean_ms).
//
// # Comparing
//
// Append records with -json, say ten seeds per commit:
//
//	for s in 1 2 3 4 5 6 7 8 9 10; do
//	  bash cmd/ndbench/run.sh --workload serve-diagnose --seed $s --seconds 25 --trace 0 -json parent.json
//	done
//
// then, from the repository root (-compare reads the bounds from
// BENCHMARK.json there):
//
//	bash cmd/ndbench/run.sh -compare parent.json change.json
//
// Because ndbench is its own module, go run ./cmd/ndbench from the root does
// not build it; run.sh does, and passes any flags through, as in
//
//	bash cmd/ndbench/run.sh -workload all -seed 1
//
// Each file is a set of runs. For every workload and end-to-end metric the
// comparison prints each side's run count, quartiles and median, and a
// verdict: worse when the second median is worse than the first by more
// than the metric's bound; unresolved when either side's spread (the
// distance between its quartiles as a share of its median) exceeds the
// bound, unless every run of the second side is better than every run of
// the first; ok otherwise. The exit code is 1 when any verdict is worse.
//
// # Measured spread
//
// Spread is the distance between the quartiles of ten runs with seeds 1 to
// 10, as a share of their median, on a 2-vCPU virtual machine whose
// processor speed drifted by 20% to 45% over seconds to minutes: the same
// program ran its requests that much slower for stretches of 5 to 30
// seconds, in one process as much as across processes, and its processor
// time per request rose with its wall time. Longer windows average the
// drift but cannot remove it; wall-clock latency medians of such sets
// spread by 0.13 to 0.33. Hence the reference speed. Two sets of the same
// commit, one after the other, at the default window, timings at the
// reference speed:
//
//	workload        metric           set A: median [q1, q3]   spread  set B: median [q1, q3]   spread
//	serve-diagnose  latency_p50_ms   67.20 [64.54, 68.73]     0.062   70.29 [67.78, 70.94]     0.045
//	                setup_s (in ms)  34.81 [30.26, 36.21]     0.171   32.21 [29.99, 33.36]     0.105
//	                rss_peak_mb      114.0 [112.0, 116.0]     0.035   107.8 [106.0, 109.7]     0.034
//	serve-tiny      latency_p50_ms   0.2883 [0.2809, 0.2989]  0.062   0.3012 [0.2928, 0.3119]  0.064
//	                setup_s (in ms)  0.2157 [0.1966, 0.2286]  0.148   0.2124 [0.2075, 0.2195]  0.057
//	                rss_peak_mb      48.35 [48.28, 48.56]     0.006   48.63 [48.30, 48.87]     0.012
//	stream-feed     latency_p50_ms   42.05 [40.57, 43.68]     0.074   46.26 [43.94, 51.50]     0.163
//	                setup_s (in ms)  28.84 [27.14, 29.48]     0.081   29.86 [27.70, 30.98]     0.110
//	                rss_peak_mb      841.0 [803.6, 864.7]     0.073   845.1 [816.8, 861.1]     0.052
//	diagnose-10k    latency_p50_ms   1579 [1529, 1656]        0.081   1686 [1624, 1750]        0.075
//	                setup_s (in ms)  33.75 [32.35, 36.94]     0.136   36.69 [33.67, 44.41]     0.293
//	                rss_peak_mb      336.6 [332.6, 338.4]     0.017   335.3 [331.4, 340.6]     0.027
//
// Every latency and memory spread is within its bound (0.25 and 0.2), and
// all but stream-feed's in set B are below a third of it; set-up spreads
// are not gated. In set B the machine ran about a fifth slower (wall-clock
// diagnose-10k median 2328 ms against 1919 ms in set A), and two
// stream-feed runs slowed by half in a way the kernel did not follow: its
// stretches of ingest load and a heap near 800 MiB are the workload least
// like the kernel. Between the two sets the latency medians moved by
// +4.6% (serve-diagnose), +4.5% (serve-tiny), +10.0% (stream-feed) and
// +6.8% (diagnose-10k), and ndbench -compare of the two sets found every
// verdict ok but diagnose-10k set-up's, which was unresolved. A kernel
// with a 64 MiB pointer chase, to follow main memory, tracked the
// workloads worse than this one. The latency bounds stay at 0.25, the
// largest BENCHMARK.json allows, since the drift is uneven. Compare
// commits with sets run close together, alternating which runs first.
//
// # Relation to make bench
//
// make bench, cmd/benchjson and BENCH_pipeline.json remain what they were:
// single-sample microbenchmarks of individual functions. ndbench does not
// read or write them.
package main
