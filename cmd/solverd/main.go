// Command solverd runs the m-step PCG solver as a resident HTTP service:
// a bounded worker pool executes concurrent solves, a planner turns every
// request into an explicit execution plan (matvec backend, batch tiles,
// kernel fan-out), and a problem/preconditioner cache amortizes plate
// assembly and spectral interval estimation across requests.
//
// Usage:
//
//	solverd -addr :8080 [-node-id n1] [-workers 4] [-worker-budget 0]
//	        [-queue 256] [-cache 64] [-tuning adapt] [-history 512]
//	        [-drain 30s] [-log-format text] [-debug-addr :6060]
//
// API:
//
//	POST   /v1/solve     {"plate":{"rows":20,"cols":20},"solver":{"m":3,"coeffs":"least-squares"}}
//	                     add "async":true for 202 + job ID instead of waiting;
//	                     batched load cases via "plate":{"tractions":[...]} or
//	                     "system":{"fs":[[...],...]} solve as one block job
//	POST   /v1/plan      same body (minus "async"): returns the execution
//	                     plan — backend, column tiles, workers, m — the
//	                     service would run it with, without solving; for a
//	                     warm problem past the observation gate the plan
//	                     carries its self-tuning evidence (every candidate's
//	                     measured rhs/s and score)
//	GET    /v1/jobs/{id} job status and result; with "Accept:
//	                     text/event-stream" (or "?watch=1" for chunked JSON
//	                     lines) streams each load case's result as it
//	                     converges, ending with the finished job
//	GET    /v1/jobs/{id}/trace
//	                     the job's stage timeline (queue wait, assembly,
//	                     spectral estimation, per-tile solves, …) plus its
//	                     sampled convergence curve; replayable after the
//	                     job finishes
//	DELETE /v1/jobs/{id} cancel a queued or running job
//	GET    /v1/healthz   readiness: 200 with queue depth and uptime while
//	                     serving, 503 once draining — what a load balancer
//	                     or the solverfleet router health-checks
//	GET    /v1/stats     queue depth, cache hit rate, p50/p99 latency
//	                     (overall and split by matvec backend), per-backend
//	                     solve counts, tiles executed, live stream
//	                     subscribers
//	GET    /metrics      Prometheus text exposition: job/solve/cache
//	                     counters, queue and subscriber gauges, latency and
//	                     iteration histograms
//
// -log-format selects text (default, human-readable) or json structured
// logs; every log line carries the job or request id it concerns. When
// -debug-addr is set, a second mux on that address serves net/http/pprof
// under /debug/pprof/ and expvar under /debug/vars — bound separately so
// profiling endpoints are never exposed on the public API address.
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains:
// in-flight requests — including long-lived result streams — get the drain
// deadline to finish; past it, streaming connections are severed and the
// service shuts down hard so the process never wedges on a stuck client.
//
// The repro/client package is the Go SDK for this API (an implementation
// of the repro.Solver contract); repro.NewLocal embeds the same solver
// engine in process for callers that don't want a daemon at all.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/plan"
	"repro/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		nodeID    = flag.String("node-id", "", "fleet node identity: prefixes job IDs so a fleet router can route job lookups back here (must match the router's member name; empty = standalone)")
		debugAddr = flag.String("debug-addr", "", "debug listen address serving /debug/pprof and /debug/vars (empty = disabled)")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		workers   = flag.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS)")
		budget    = flag.Int("worker-budget", 0, "kernel goroutines per solve (0 = GOMAXPROCS/workers)")
		queue     = flag.Int("queue", 256, "job queue depth (further submissions get 503)")
		cache     = flag.Int("cache", 64, "problem/preconditioner cache entries")
		tuning    = flag.String("tuning", "adapt", "plan feedback default for requests that don't pin solver.tuning: off or adapt")
		history   = flag.Int("history", 512, "finished jobs kept for /v1/jobs lookups")
		drain     = flag.Duration("drain", 30*time.Second, "shutdown drain deadline for in-flight jobs and streams")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		slog.Error("unknown -log-format (want text or json)", "got", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	if _, err := plan.ParseTuning(strings.ToLower(*tuning)); err != nil {
		slog.Error("invalid -tuning (want off or adapt)", "got", *tuning)
		os.Exit(2)
	}

	svc := service.New(service.Config{
		NodeID:       *nodeID,
		Workers:      *workers,
		WorkerBudget: *budget,
		QueueDepth:   *queue,
		CacheSize:    *cache,
		HistoryLimit: *history,
		Tuning:       strings.ToLower(*tuning),
		Logger:       logger,
	})

	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr)
	}

	// Every request context derives from rootCtx: canceling it is the
	// hard-stop lever that unblocks long-lived SSE/watch streams whose
	// jobs didn't finish inside the drain deadline (Shutdown alone would
	// wait on them forever).
	rootCtx, hardStop := context.WithCancel(context.Background())
	defer hardStop()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return rootCtx },
	}

	go func() {
		logger.Info("listening", "addr", *addr, "gomaxprocs", runtime.GOMAXPROCS(0))
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("listen failed", "err", err)
			os.Exit(1)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down: draining in-flight requests, streams and queued jobs", "deadline", drain.String())
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("drain deadline exceeded: severing remaining streams", "err", err)
		hardStop() // cancels every request context; stream loops exit
		if err := srv.Close(); err != nil {
			logger.Warn("http close", "err", err)
		}
		svc.Abort()
	}
	// The queue drain honors the same deadline: past it, queued and
	// running jobs are canceled so Close terminates promptly instead of
	// fully solving the backlog.
	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()
	select {
	case <-closed:
	case <-ctx.Done():
		logger.Warn("drain deadline exceeded: aborting queued and running jobs")
		svc.Abort()
		<-closed
	}
	logger.Info("bye")
}

// serveDebug runs the profiling/introspection mux: net/http/pprof and
// expvar, on their own address so they are never reachable through the
// public API listener. Registered on a private mux (not DefaultServeMux)
// to keep the exposure explicit.
func serveDebug(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	logger.Info("debug endpoints listening", "addr", addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("debug listen failed", "err", err)
	}
}
