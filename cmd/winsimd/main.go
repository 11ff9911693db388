// Command winsimd serves the repository's simulations over HTTP: a
// worker pool executes submitted jobs concurrently and a
// content-addressed cache answers repeated specs without re-running.
//
// Usage:
//
//	winsimd [-addr :8091] [-workers N] [-cachedir DIR] [-cachesize N]
//	        [-timeout 10m] [-maxqueue 256] [-clientqueue N] [-maxqueuecost N]
//	        [-reqtimeout 2m] [-node URL] [-peers URL,URL] [-join URL]
//
// Several winsimd processes form a cluster: -peers lists the other
// members statically, or -join announces this node to a running member
// and learns the membership from it. Cluster members shard experiment
// cells across the ring by content hash and answer each other's cache
// misses over GET /v1/cache/{hash} before recomputing anything.
//
// Endpoints:
//
//	POST /v1/jobs             submit a spec or batch (?wait=1 blocks for results)
//	GET  /v1/jobs/{id}        job status and result
//	GET  /v1/jobs/{id}/trace  Chrome trace of a cell submitted with "trace": true
//	GET  /v1/cache/{hash}     locally cached result by content hash (peer fill)
//	GET  /v1/experiments      experiment catalog
//	GET  /v1/cluster/join     POST: announce a member; GET /v1/cluster/members lists them
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus text exposition (?format=json for JSON)
//	GET  /debug/pprof/        live profiling (only with -pprof)
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
	"strings"
	"syscall"
	"time"

	"cyclicwin/internal/cluster"
	"cyclicwin/internal/netfault"
	"cyclicwin/internal/simsvc"
)

// selfURL derives the node's advertised URL from the listen address
// when -node is not given: ":8091" → "http://127.0.0.1:8091".
func selfURL(addr string) string {
	host, port := "127.0.0.1", ""
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		if h := addr[:i]; h != "" && h != "0.0.0.0" && h != "[::]" {
			host = h
		}
		port = addr[i+1:]
	}
	return cluster.NormalizeAddr(host + ":" + port)
}

// splitPeers parses a comma-separated peer list, normalizing each.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = cluster.NormalizeAddr(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

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
	nodeURL := flag.String("node", "", "advertised URL of this node (default derived from -addr)")
	peers := flag.String("peers", "", "comma-separated URLs of the other cluster members")
	join := flag.String("join", "", "URL of a running member to announce this node to")
	netfaultSpec := flag.String("netfault", "", "inject seeded network faults into this node's outbound requests, e.g. \"seed=42,drop=0.1,delay=30ms:0.25,corrupt=0.05\" (empty = off)")
	sweepBudget := flag.Duration("sweepbudget", 0, "per-sweep routing deadline for distributed experiments; expired cells run inline (0 = none)")
	flag.Parse()

	cache, err := simsvc.NewCache(*cacheSize, *cacheDir)
	if err != nil {
		log.Fatalf("winsimd: %v", err)
	}

	self := *nodeURL
	if self == "" {
		self = selfURL(*addr)
	}
	nf, err := netfault.FromSpec(*netfaultSpec)
	if err != nil {
		log.Fatalf("winsimd: %v", err)
	}
	nodeCfg := cluster.NodeConfig{
		Logf: log.Printf,
	}
	if nf != nil {
		nodeCfg.Transport = nf
		log.Printf("winsimd: netfault armed: %s", *netfaultSpec)
	}
	node := cluster.NewNode(self, splitPeers(*peers), nodeCfg)
	defer node.Close()
	cache.SetRemote(node.PeerCache())

	clustered := *peers != "" || *join != ""
	var coord *cluster.Coordinator
	poolCfg := simsvc.PoolConfig{
		Workers:        *workers,
		JobTimeout:     *timeout,
		MaxQueue:       *maxQueue,
		PerClientQueue: *clientQueue,
		MaxQueueCost:   *maxQueueCost,
		Cache:          cache,
	}
	if clustered {
		// In a cluster, named experiments fan their cells out across the
		// ring instead of running them all on this node's pool.
		coord = cluster.NewCoordinator(node, cluster.CoordinatorConfig{
			Cache:        cache,
			CellTimeout:  *timeout,
			SweepTimeout: *sweepBudget,
			Logf:         log.Printf,
		})
		poolCfg.CellRunner = coord.Runner()
	}
	pool := simsvc.NewPool(poolCfg)
	if coord != nil {
		// Inline (self-owned) cells still count toward this node's
		// simulation metrics.
		coord.OnLocalCell = pool.ObserveSim
	}

	api := simsvc.NewServer(pool)
	api.SetRequestTimeout(*reqTimeout)
	api.Handle("POST /v1/cluster/join", node.HandleJoin)
	api.Handle("GET /v1/cluster/members", node.HandleMembers)
	api.AddMetricsWriter(node.WritePrometheus)
	node.StartProber()
	if *join != "" {
		node.JoinLoop(cluster.NormalizeAddr(*join), 0)
	}
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
