// Command ndserve runs the NetDiagnoser diagnosis pipeline as a
// long-running HTTP service. Registered scenarios are converged once into
// warm snapshots; POST /v1/diagnose injects a failure set into a fork of
// a snapshot and returns the hypothesis set in the same wire JSON the
// netdiagnoser CLI prints with -json. Identical in-flight requests are
// coalesced into one computation, admission is bounded by a queue that
// sheds overload with 429, and SIGINT/SIGTERM triggers a graceful drain.
//
// Endpoints:
//
//	POST /v1/diagnose        {"scenario","algorithm","fail_links","fail_routers","timeout_ms"}
//	POST /v1/diagnose/batch  {"scenario","algorithm","items":[...],"timeout_ms"}
//	GET  /v1/scenarios       registered scenarios and their warm state
//	GET  /healthz            liveness
//	GET  /readyz             readiness (200 once every scenario is warm)
//	GET  /metrics            Prometheus text exposition of the telemetry registry
//	GET  /debug/traces       recent completed request traces as JSON
//
// Every v1 request is traced: the ND-Trace-Id header is honored when the
// client sends one (and minted otherwise), echoed on every response, and
// followed by the front to the owning shard. -slow-ms promotes slow
// requests to a per-phase access-log breakdown.
//
// With -ingest, ndserve also runs the streaming diagnosis plane, its one
// trouble-detection path: sensors POST traceroute and BGP records to
// /v1/ingest/{traceroute,bgp}, the plane correlates the ones that show
// trouble into events, and each closed event is diagnosed through the
// same admission queue as the HTTP requests and listed on /v1/events.
//
// A fleet splits the scenario set across worker processes and puts a
// routing tier in front: every worker gets the same -scenarios list plus
// -shard-of i/N (so it converges only the scenarios rendezvous hashing
// assigns to shard i), and one more ndserve runs with -shards listing
// the workers' base URLs. The front proxies /v1/diagnose and
// /v1/diagnose/batch to the owning shard, merges /v1/scenarios and
// aggregates /readyz; /v1/ingest/* and /v1/events are worker-only, so
// -shards refuses -ingest (and -shard-of). A worker reads no file: it
// converges its scenarios from the built-in topologies at every start.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netdiag/internal/server"
	"netdiag/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (use port 0 for a random port)")
		par          = flag.Int("parallelism", 0, "simulation/diagnosis workers per request (0 = GOMAXPROCS)")
		workers      = flag.Int("workers", 0, "concurrent diagnosis computations (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 16, "requests allowed to wait beyond the executing ones before shedding with 429")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request computation cap (requests may lower it via timeout_ms)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "bound on the graceful drain after SIGINT/SIGTERM")
		scenarios    = flag.String("scenarios", "fig1,fig2", "comma-separated scenarios to register: fig1, fig2, research-<seed>")
		debugAddr    = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof for the telemetry registry on this address")
		ingest       = flag.Bool("ingest", false, "enable the streaming plane: POST /v1/ingest/{traceroute,bgp} and GET /v1/events")
		eventWindow  = flag.Duration("event-window", 2*time.Second, "record-time correlation window bucketing streamed observations into one event")
		eventIdle    = flag.Duration("event-idle-close", 5*time.Second, "record-time idle gap after which a streaming event closes and is diagnosed")
		shards       = flag.String("shards", "", "run as the fleet front: comma-separated worker base URLs, index = shard id (disables local diagnosis)")
		shardOf      = flag.String("shard-of", "", "run as fleet worker i of N (\"i/N\"): register only the scenarios shard i owns")
		slowMS       = flag.Int("slow-ms", 0, "promote requests at least this slow (milliseconds) to a per-phase access-log breakdown (0 disables)")
		traceBuffer  = flag.Int("trace-buffer", 0, "completed request traces retained for /debug/traces (0 = 64)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *shards != "" {
		switch {
		case *shardOf != "":
			fatal(fmt.Errorf("-shards and -shard-of are mutually exclusive: the front runs no diagnoses"))
		case *ingest:
			fatal(fmt.Errorf("-shards and -ingest are mutually exclusive: the streaming plane runs on the workers only"))
		}
		if err := runFront(*addr, *shards, *drainTimeout, logger,
			time.Duration(*slowMS)*time.Millisecond, *traceBuffer); err != nil {
			fatal(err)
		}
		logger.Info("front drained cleanly, exiting")
		return
	}
	shardIdx, shardN, err := parseShardOf(*shardOf)
	if err != nil {
		fatal(err)
	}
	reg, err := buildRegistry(*scenarios, shardIdx, shardN)
	if err != nil {
		fatal(err)
	}
	tele := telemetry.New()
	srv := server.New(server.Config{
		Scenarios:      reg,
		Parallelism:    *par,
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainTimeout,
		Telemetry:      tele,
		Logger:         logger,
		SlowThreshold:  time.Duration(*slowMS) * time.Millisecond,
		TraceBuffer:    *traceBuffer,
		Ingest:         *ingest,
		EventWindow:    *eventWindow,
		EventIdleClose: *eventIdle,
	})

	if *debugAddr != "" {
		dbg, err := telemetry.ServeDebug(*debugAddr, tele)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		logger.Info("debug server up", "addr", dbg.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The smoke test (and port-0 users generally) parse this line to find
	// the bound address; keep its shape stable.
	fmt.Printf("ndserve: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := srv.Serve(ctx, ln); err != nil {
		fatal(err)
	}
	logger.Info("drained cleanly, exiting")
}

// buildRegistry resolves the -scenarios list into a registry. As fleet
// worker shardIdx of shardN it registers only the scenarios that shard
// owns under rendezvous hashing — possibly none, which is a legitimate
// (instantly warm) worker; unsharded, an empty registry is a
// configuration error.
func buildRegistry(list string, shardIdx, shardN int) (*server.Registry, error) {
	reg := server.NewRegistry()
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" || (shardN > 1 && server.ShardIndex(name, shardN) != shardIdx) {
			continue
		}
		switch {
		case name == "fig1":
			if err := reg.Register(name, server.Fig1Scenario); err != nil {
				return nil, err
			}
		case name == "fig2":
			if err := reg.Register(name, server.Fig2Scenario); err != nil {
				return nil, err
			}
		case strings.HasPrefix(name, "research-"):
			seed, err := strconv.ParseInt(strings.TrimPrefix(name, "research-"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad research scenario %q: %w", name, err)
			}
			if err := reg.Register(name, server.ResearchScenario(seed, 8)); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unknown scenario %q (want fig1, fig2 or research-<seed>)", name)
		}
	}
	if len(reg.Names()) == 0 && shardN <= 1 {
		return nil, fmt.Errorf("-scenarios registered nothing")
	}
	return reg, nil
}

// parseShardOf parses the -shard-of value "i/N"; empty means unsharded
// (0 of 1).
func parseShardOf(s string) (idx, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	i, rest, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard-of %q (want i/N)", s)
	}
	idx, err = strconv.Atoi(i)
	if err == nil {
		n, err = strconv.Atoi(rest)
	}
	if err != nil || n < 1 || idx < 0 || idx >= n {
		return 0, 0, fmt.Errorf("bad -shard-of %q (want i/N with 0 <= i < N)", s)
	}
	return idx, n, nil
}

// runFront serves the fleet routing tier until SIGINT/SIGTERM, then
// shuts down gracefully within drainTimeout. The front holds no state,
// so its drain is just the HTTP server's.
func runFront(addr, shards string, drainTimeout time.Duration, logger *slog.Logger,
	slowThreshold time.Duration, traceBuffer int) error {
	var backends []string
	for _, b := range strings.Split(shards, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		backends = append(backends, strings.TrimSuffix(b, "/"))
	}
	if len(backends) == 0 {
		return fmt.Errorf("-shards listed no backends")
	}
	front := server.NewFront(server.FrontConfig{
		Backends:      backends,
		Client:        &http.Client{Timeout: 30 * time.Second},
		Telemetry:     telemetry.New(),
		Logger:        logger,
		SlowThreshold: slowThreshold,
		TraceBuffer:   traceBuffer,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Same stable marker as worker mode; fleet scripts parse it too.
	fmt.Printf("ndserve: listening on %s\n", ln.Addr())
	logger.Info("front routing", "shards", len(backends))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: front.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
	defer cancel()
	err = srv.Shutdown(sctx)
	<-serveErr // always http.ErrServerClosed after Shutdown
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ndserve:", err)
	os.Exit(1)
}
