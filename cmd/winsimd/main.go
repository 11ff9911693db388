// Command winsimd serves the repository's simulations over HTTP: a
// worker pool executes submitted jobs concurrently and a
// content-addressed cache answers repeated specs without re-running.
//
// Usage:
//
//	winsimd [-addr :8091] [-workers N] [-cachedir DIR] [-cachesize N]
//	        [-timeout 10m] [-maxqueue 256] [-clientqueue N] [-maxqueuecost N]
//	        [-reqtimeout 2m] [-drain 30s] [-pprof]
//
// One process serves everything: a named experiment runs its sweep
// cells on one worker through the shared cache, and concurrent jobs
// spread across the workers.
//
// Endpoints:
//
//	POST /v1/jobs             submit a spec or batch (?wait=1 blocks for results)
//	GET  /v1/jobs/{id}        job status and result
//	GET  /v1/jobs/{id}/trace  Chrome trace of a cell submitted with "trace": true
//	GET  /v1/experiments      experiment catalog
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus text exposition (?format=json for JSON)
//	GET  /debug/pprof/        live profiling (only with -pprof)
//
// Every JSON response carries X-Content-Sha256, the hex SHA-256 of its
// body.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight jobs before exiting; a second signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cyclicwin/internal/simsvc"
)

func main() {
	addr := flag.String("addr", ":8091", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	cacheDir := flag.String("cachedir", "", "directory for the on-disk result store (empty = memory only)")
	cacheSize := flag.Int("cachesize", 0, "in-memory cache entries (0 = default)")
	timeout := flag.Duration("timeout", 10*time.Minute, "per-job execution timeout (0 = none)")
	maxQueue := flag.Int("maxqueue", 256, "queued-job bound; submissions beyond it get 429 (0 = unbounded)")
	clientQueue := flag.Int("clientqueue", 0, "per-client queued-job share, keyed by the X-Client-ID header; over-share submissions get 429 (0 = off)")
	maxQueueCost := flag.Uint64("maxqueuecost", 0, "summed cost-estimate bound over the queue (threads x windows x text length); jobs whose estimate would exceed it get 429 (0 = off)")
	reqTimeout := flag.Duration("reqtimeout", 2*time.Minute, "per-request deadline, including ?wait=1 blocking (0 = none)")
	drainFor := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.Parse()

	cache, err := simsvc.NewCache(*cacheSize, *cacheDir)
	if err != nil {
		log.Fatalf("winsimd: %v", err)
	}

	pool := simsvc.NewPool(simsvc.PoolConfig{
		Workers:        *workers,
		JobTimeout:     *timeout,
		MaxQueue:       *maxQueue,
		PerClientQueue: *clientQueue,
		MaxQueueCost:   *maxQueueCost,
		Cache:          cache,
	})

	api := simsvc.NewServer(pool)
	api.SetRequestTimeout(*reqTimeout)
	var handler http.Handler = api
	if *enablePprof {
		// Off by default: the profile endpoints expose internals and cost
		// CPU, so they are opt-in rather than wired into the API server.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("winsimd: serving on %s (%d workers, cache dir %q)", *addr, pool.Workers(), *cacheDir)

	select {
	case err := <-errCh:
		log.Fatalf("winsimd: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Printf("winsimd: shutting down, draining in-flight jobs (budget %v)", *drainFor)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("winsimd: http shutdown: %v", err)
	}
	if err := pool.Drain(shutdownCtx); err != nil {
		log.Printf("winsimd: drain incomplete: %v", err)
		os.Exit(1)
	}
	m := pool.Metrics()
	fmt.Printf("winsimd: done — %d jobs done, %d failed, cache hit ratio %.2f\n",
		m.JobsDone, m.JobsFailed, m.CacheHitRatio)
}
