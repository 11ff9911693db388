package simsvc

import (
	"runtime"
	"testing"

	"cyclicwin/internal/harness"
)

// The serial/parallel pair below is the wall-clock comparison recorded
// in BENCH_sweep.json: a full Figure 11 sweep (3 schemes x 3
// behaviours x the paper's 12 window counts = 108 simulations) run
// through harness.RunSerial versus the simsvc pool. The pool runs
// without a cache so every iteration pays the full simulation cost —
// this measures the worker pool, not the cache.
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
	benchSweep(b, harness.RunSerial)
}

func BenchmarkSweepParallel(b *testing.B) {
	p := NewPool(PoolConfig{Workers: runtime.GOMAXPROCS(0)})
	defer p.Close()
	benchSweep(b, p.Runner())
}

// BenchmarkSweepParallelCached measures the steady state the service
// actually runs in: the second and later sweeps of identical specs are
// pure cache reads.
func BenchmarkSweepParallelCached(b *testing.B) {
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
