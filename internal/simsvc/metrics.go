package simsvc

import (
	"math/bits"
	"sync"
	"time"

	"cyclicwin/internal/stats"
)

// jobStats is the pool's job accounting. Every field is guarded by
// Pool.mu and written in the critical section that already moves a job
// through its lifecycle (admission, dequeue, finish), so a copy taken
// under the lock sees exact conservation: accepted == queued + running
// + done + failed + canceled.
type jobStats struct {
	accepted, queued, running, done, failed, canceled uint64
	cached                                            uint64 // subset of done answered by the cache
	panics                                            uint64
	shed                                              uint64 // submissions refused by MaxQueue

	// latency holds job latencies in nanoseconds rounded up by
	// latencyBucket; latSum and latMax stay exact beside it.
	latency        stats.Distribution
	latSum, latMax uint64
}

// latencyBucket rounds a nanosecond latency up to the largest value of
// its log-linear bucket: 16 sub-buckets per octave, values below 32
// exact. The histogram therefore holds at most 976 distinct values and
// every quantile read from it is within 6.25% of the true one.
func latencyBucket(v uint64) uint64 {
	if v < 32 {
		return v
	}
	return v | (1<<(bits.Len64(v)-1-4) - 1)
}

// observe records one job latency, clamped to 1ns so a cache answer
// faster than the clock's resolution still registers as a real
// (nonzero) service latency.
func (s *jobStats) observe(elapsed time.Duration) {
	ns := uint64(max(elapsed.Nanoseconds(), 1))
	s.latency.Observe(latencyBucket(ns))
	s.latSum += ns
	s.latMax = max(s.latMax, ns)
}

// finished moves a job a worker took off the queue to terminal state st.
func (s *jobStats) finished(st Status) {
	s.running--
	switch st {
	case StatusDone:
		s.done++
	case StatusFailed:
		s.failed++
	default:
		s.canceled++
	}
}

// simAgg is the per-scheme simulation aggregate. Cells take
// milliseconds to simulate, so one mutex around a fold-per-cell is
// nowhere near the per-job hot path.
type simAgg struct {
	mu    sync.Mutex
	sim   map[string]*stats.Counters
	cells map[string]uint64
}

func (a *simAgg) observe(scheme string, c *stats.Counters) {
	a.mu.Lock()
	if a.sim == nil {
		a.sim = make(map[string]*stats.Counters)
		a.cells = make(map[string]uint64)
	}
	agg, ok := a.sim[scheme]
	if !ok {
		agg = &stats.Counters{}
		a.sim[scheme] = agg
	}
	agg.Add(c)
	a.cells[scheme]++
	a.mu.Unlock()
}

// SimSnapshot is the point-in-time per-scheme simulation aggregate.
type SimSnapshot struct {
	Cells    uint64
	Counters stats.Counters
}

func (a *simAgg) snapshot() map[string]SimSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]SimSnapshot, len(a.sim))
	for scheme, c := range a.sim {
		out[scheme] = SimSnapshot{Cells: a.cells[scheme], Counters: c.Clone()}
	}
	return out
}

// snapshot copies the job accounting under p.mu once and derives the
// JSON snapshot outside the lock. The copy is returned too, so a
// Prometheus scrape renders its histogram from the same instant as its
// counters.
func (p *Pool) snapshot() (MetricsSnapshot, jobStats) {
	p.mu.Lock()
	a := p.acct
	a.latency = a.latency.Clone()
	p.mu.Unlock()

	cs := p.cfg.Cache.Stats()
	workers := p.cfg.Workers
	n := a.latency.N()
	// A bucket's rounded value can overshoot the true maximum; the
	// exact max is kept aside.
	quantileMS := func(q float64) float64 { return float64(min(a.latency.Quantile(q), a.latMax)) / 1e6 }
	s := MetricsSnapshot{
		JobsAccepted: a.accepted,
		JobsQueued:   a.queued,
		JobsRunning:  a.running,
		JobsDone:     a.done,
		JobsFailed:   a.failed,
		JobsCanceled: a.canceled,
		JobsCached:   a.cached,
		JobsShed:     a.shed,
		PanicsTotal:  a.panics,

		Workers:         workers,
		BusyWorkers:     int(a.running),
		PoolUtilization: float64(a.running) / float64(workers),

		CacheEntries:   cs.Entries,
		CacheHits:      cs.Hits,
		CacheDiskHits:  cs.DiskHits,
		CacheCoalesced: cs.Coalesced,
		CacheMisses:    cs.Misses,
		CacheHitRatio:  cs.HitRatio(),

		JobLatencyP50MS: quantileMS(0.5),
		JobLatencyP99MS: quantileMS(0.99),
		JobLatencyMaxMS: float64(a.latMax) / 1e6,
		JobsMeasured:    n,
	}
	if n > 0 {
		s.JobLatencyMeanMS = float64(a.latSum) / float64(n) / 1e6
	}
	return s, a
}

// MetricsSnapshot is the JSON shape served by GET /metrics?format=json.
type MetricsSnapshot struct {
	JobsAccepted uint64 `json:"jobs_accepted"`
	JobsQueued   uint64 `json:"jobs_queued"`
	JobsRunning  uint64 `json:"jobs_running"`
	JobsDone     uint64 `json:"jobs_done"`
	JobsFailed   uint64 `json:"jobs_failed"`
	JobsCanceled uint64 `json:"jobs_canceled"`
	JobsCached   uint64 `json:"jobs_cached"`
	JobsShed     uint64 `json:"jobs_shed"`
	PanicsTotal  uint64 `json:"panics_total"`

	Workers         int     `json:"workers"`
	BusyWorkers     int     `json:"busy_workers"`
	PoolUtilization float64 `json:"pool_utilization"` // busy / workers

	CacheEntries   int     `json:"cache_entries"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheDiskHits  uint64  `json:"cache_disk_hits"`
	CacheCoalesced uint64  `json:"cache_coalesced"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`

	JobLatencyMeanMS float64 `json:"job_latency_mean_ms"`
	JobLatencyP50MS  float64 `json:"job_latency_p50_ms"`
	JobLatencyP99MS  float64 `json:"job_latency_p99_ms"`
	JobLatencyMaxMS  float64 `json:"job_latency_max_ms"`
	JobsMeasured     uint64  `json:"jobs_measured"`
}
