package simsvc

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"cyclicwin/internal/harness"
)

// The serial/parallel pair below is a wall-clock comparison: a full
// Figure 11 sweep (3 schemes x 3 behaviours x the paper's 12 window
// counts = 108 simulations) run through harness.RunSerial versus the
// simsvc pool. The pool runs without a cache so every iteration pays
// the full simulation cost — this measures the worker pool, not the
// cache.
//
//	go test -run - -bench BenchmarkSweep -benchtime 3x ./internal/simsvc
//
// On a single-core host both paths are equal (there is nothing to fan
// out over); the speedup scales with GOMAXPROCS and reaches >= 2x on
// 4+ cores because the 108 cells are independent and CPU-bound.

func benchSweep(b *testing.B, run harness.Runner) {
	b.Helper()
	harness.RunFig11With(harness.QuickSizes, []int{4}, harness.RunSerial) // warm the corpus cache outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.RunFig11With(harness.QuickSizes, harness.WindowCounts, run)
	}
}

func BenchmarkSweepSerial(b *testing.B) {
	benchWithoutAudit(b)
	benchSweep(b, harness.RunSerial)
}

func BenchmarkSweepParallel(b *testing.B) {
	benchWithoutAudit(b)
	p := NewPool(PoolConfig{Workers: runtime.GOMAXPROCS(0)})
	defer p.Close()
	benchSweep(b, p.Runner())
}

// BenchmarkSweepParallelCached measures the steady state the service
// actually runs in: the second and later sweeps of identical specs are
// pure cache reads.
func BenchmarkSweepParallelCached(b *testing.B) {
	benchWithoutAudit(b)
	cache, err := NewCache(0, "")
	if err != nil {
		b.Fatal(err)
	}
	p := NewPool(PoolConfig{Workers: runtime.GOMAXPROCS(0), Cache: cache})
	defer p.Close()
	run := p.Runner()
	harness.RunFig11With(harness.QuickSizes, harness.WindowCounts, run) // populate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.RunFig11With(harness.QuickSizes, harness.WindowCounts, run)
	}
}

// BenchmarkServeHit is one cache-hit round trip through the HTTP
// handler: POST /v1/jobs?wait=1 of a warmed cell at the serve-mixed
// workload's sizes (600-byte draft, 901-byte dictionary), served by
// Server.ServeHTTP without a network. It is the in-process counterpart
// of perfbench's serve.hot.cpu_ms.
//
//	go test -run '^$' -bench BenchmarkServeHit -benchmem ./internal/simsvc
func BenchmarkServeHit(b *testing.B) {
	benchWithoutAudit(b)
	cache, err := NewCache(0, "")
	if err != nil {
		b.Fatal(err)
	}
	p := NewPool(PoolConfig{Workers: 1, Cache: cache})
	defer p.Close()
	srv := NewServer(p)
	const body = `{"experiment":"cell","scheme":"SP","windows":6,"behavior":"high-fine","draft":600,"dict":901}`
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	serve() // the cold run fills the cache
	var warm jobsResponse
	if err := json.Unmarshal(serve().Body.Bytes(), &warm); err != nil || len(warm.Jobs) != 1 || !warm.Jobs[0].CacheHit {
		b.Fatalf("warmed submission was not a cache hit (%v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
