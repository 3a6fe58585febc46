// Command herserve trains a HER system over a generated dataset and
// serves the query modes over HTTP (see internal/server for the
// endpoint reference):
//
//	herserve -dataset DBLP -entities 200 -addr :8080
//	curl 'localhost:8080/vpair?rel=paper&tuple=3'
//
// With -models the learned parameters are loaded from (or, with
// -save-models, written to) a model file, so training happens once.
//
// Every hosted view is served by a shard engine (see internal/shard): G
// is partitioned into -shards halo-replicated fragments (default 1)
// matched by per-shard workers behind a generation-stamped result
// cache, and overloaded queues shed requests with 429. -deadline-ms
// bounds per-request matching work (503 on expiry; requests can tighten
// it further with timeout_ms).
//
// The serving path is instrumented: GET /metrics exposes Prometheus
// counters and histograms for HTTP requests, ParaMatch phases, shard
// queue waits and BSP supersteps. Request tracing is always on: every
// request gets an X-Request-ID and a span tree, the flight recorder
// retains the slowest and all recent errored traces per endpoint, and
// GET /debug/requests serves them (-trace-slow/-trace-errors size the
// retention, -no-trace disables it, -log-requests adds one structured
// log line per request). With -debug-addr a second listener serves
// net/http/pprof profiles and expvar for debugging without exposing
// them on the public address.
//
// SIGINT or SIGTERM stops the listeners, gives the requests in flight
// shutdownGrace to be answered, and then stops the shard workers.
package main

import (
	"context"
	"errors"
	_ "expvar" // /debug/vars (memstats, cmdline) on DefaultServeMux
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"her"
	"her/internal/dataset"
	"her/internal/learn"
	"her/internal/server"
)

func main() {
	name := flag.String("dataset", "Synthetic", "dataset name")
	entities := flag.Int("entities", 150, "matchable entity count")
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (empty = disabled)")
	noMetrics := flag.Bool("no-metrics", false, "disable the metrics registry (drops /metrics content)")
	models := flag.String("models", "", "load learned parameters from this file instead of training")
	saveModels := flag.String("save-models", "", "write learned parameters to this file after training")
	views := flag.String("views", "", "comma-separated view definition files; each view becomes a linking target addressable with ?view=")
	shards := flag.Int("shards", 1, "halo-replicated shards each view's serving engine partitions G into")
	deadlineMS := flag.Int("deadline-ms", 0, "per-request matching deadline in milliseconds (0 = unbounded; expired requests answer 503)")
	noTrace := flag.Bool("no-trace", false, "disable request tracing and the flight recorder (/debug/requests answers 404)")
	traceSlow := flag.Int("trace-slow", 0, "slowest traces retained per endpoint by the flight recorder (0 = default 16)")
	traceErrors := flag.Int("trace-errors", 0, "recent errored traces retained per endpoint (0 = default 64)")
	logRequests := flag.Bool("log-requests", false, "emit one structured log line per request (request_id, op, gen, status, duration)")
	flag.Parse()

	cfg, ok := dataset.ByName(*name, *entities)
	if !ok {
		log.Fatalf("herserve: unknown dataset %q", *name)
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	opts := her.Options{Seed: 7}
	if !*noMetrics {
		opts.Metrics = her.NewMetrics()
	}
	sys, err := her.New(d.DB, d.G, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *views != "" {
		// Load views before NewSharded so it builds their engines up front.
		for _, path := range strings.Split(*views, ",") {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			err = sys.LoadViewFile(f)
			f.Close()
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
		}
		log.Printf("hosting views: %s", strings.Join(sys.ViewNames(), ", "))
	}

	if *models != "" {
		f, err := os.Open(*models)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.LoadModels(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		log.Printf("loaded models from %s", *models)
	} else {
		var training []her.PathPair
		for i := 0; i < 20; i++ {
			training = append(training, d.PathPairs...)
		}
		if err := sys.TrainPathModel(training, 0); err != nil {
			log.Fatal(err)
		}
		if err := sys.TrainRanker(150, 10); err != nil {
			log.Fatal(err)
		}
		train, val, _, err := learn.Split(d.Truth, 0.5, 0.15, 7)
		if err != nil {
			log.Fatal(err)
		}
		th, f, err := sys.LearnThresholds(append(train, val...), learn.SearchSpace{
			SigmaMin: 0.5, SigmaMax: 0.95, DeltaMin: 0.4, DeltaMax: 3.2, KMin: 8, KMax: 20,
		}, 30)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("trained: sigma=%.2f delta=%.2f k=%d (F=%.3f)", th.Sigma, th.Delta, th.K, f)
		if *saveModels != "" {
			f, err := os.Create(*saveModels)
			if err != nil {
				log.Fatal(err)
			}
			if err := sys.SaveModels(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("saved models to %s", *saveModels)
		}
	}

	srv, err := server.NewSharded(sys, *shards)
	if err != nil {
		log.Fatal(err)
	}
	info := srv.Engine().Snapshot()
	log.Printf("serving from %d shards, halo radius %d", info.Shards, info.HaloRadius)
	if *deadlineMS > 0 {
		srv.Deadline = time.Duration(*deadlineMS) * time.Millisecond
	}
	if *noTrace {
		srv.Recorder = nil
	} else if *traceSlow > 0 || *traceErrors > 0 {
		srv.Recorder = her.NewFlightRecorder(*traceSlow, *traceErrors)
	}
	if *logRequests {
		srv.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	var debugLn net.Listener
	if *debugAddr != "" {
		if debugLn, err = net.Listen("tcp", *debugAddr); err != nil {
			log.Fatal(err)
		}
		log.Printf("debug listener (pprof, expvar) on %s", *debugAddr)
	}
	fmt.Printf("serving %s (%d tuples, |V|=%d) on %s\n",
		cfg.Name, d.DB.NumTuples(), d.G.NumVertices(), *addr)
	if err := run(ln, debugLn, srv, srv.Close); err != nil {
		log.Fatal(err)
	}
}

// What a connection may cost the server before it has sent a request,
// and between requests; and how long a shutdown waits for the requests
// in flight. There is no write timeout: how long an answer may take is
// -deadline-ms's to say, per request.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 10 * time.Second
)

// run serves h on ln — and, when debugLn is not nil, http.DefaultServeMux
// (pprof, expvar) on it — until SIGINT or SIGTERM arrives or a listener
// fails. It then stops accepting, waits up to shutdownGrace for the
// requests in flight to be answered, cuts off what is still open, and
// calls drain (the server's Close: the shard workers stop once nothing
// can ask them anything). A shutdown on a signal that cut nothing off
// returns nil.
func run(ln, debugLn net.Listener, h http.Handler, drain func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serving := map[*http.Server]net.Listener{newHTTPServer(h): ln}
	if debugLn != nil {
		serving[newHTTPServer(http.DefaultServeMux)] = debugLn
	}
	failed := make(chan error, len(serving))
	for hs, l := range serving {
		go func() { failed <- hs.Serve(l) }()
	}
	var err error
	select {
	case err = <-failed:
	case <-ctx.Done():
		log.Printf("shutting down")
	}
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	for hs := range serving {
		if serr := hs.Shutdown(grace); serr != nil {
			err = errors.Join(err, serr, hs.Close())
		}
	}
	drain()
	return err
}

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}
