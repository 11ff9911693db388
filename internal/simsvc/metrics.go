package simsvc

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cyclicwin/internal/stats"
)

// ShedReason classifies a rejected submission for the 429 taxonomy:
// the bounded queue was full, the client exhausted its fairness share,
// or the cost-aware admission bound would be exceeded.
type ShedReason int

const (
	// ShedQueueFull is the original MaxQueue bound.
	ShedQueueFull ShedReason = iota
	// ShedClientQuota is the per-client fairness bucket
	// (PoolConfig.PerClientQueue).
	ShedClientQuota
	// ShedCost is the cost-aware bound (PoolConfig.MaxQueueCost):
	// admitting the job's estimated cost would exceed it.
	ShedCost
)

// String names the reason as exposed in the X-Shed-Reason header and
// the winsimd_admission_rejects_total reason label.
func (r ShedReason) String() string {
	switch r {
	case ShedClientQuota:
		return "client_quota"
	case ShedCost:
		return "cost"
	default:
		return "queue_full"
	}
}

// ---------------------------------------------------------------------
// Sharded wait-free recorder.
//
// The design follows the wait-free multi-word (1,N) atomic register
// construction (Ianni et al., PAPERS.md): each shard is a multi-word
// register with one logical writer at a time, published to any number
// of readers through a sequence word. A writer acquires the shard by
// CAS-ing the (even) sequence to odd, applies its whole multi-word
// event, and releases by storing seq+2; it never waits for a reader.
// A reader copies the shard between two equal even sequence reads, so
// it always obtains a coherent multi-word view without ever impeding a
// writer — the scraper can hammer /metrics while every worker keeps
// publishing at full rate.
//
// Writers on the same shard can collide (a job's submitter and the
// worker that runs a different job pinned to the same shard); the CAS
// loop bounds that to writer-writer interference within one shard,
// which shard-per-job round-robin keeps rare. The scraper holds
// nothing, ever.

// Latency histogram geometry: values are nanoseconds in
// log2-with-linear-subdivision buckets (latSubBits sub-bucket bits →
// 2^latSubBits buckets per octave), so any quantile is exact to one
// sub-bucket: a relative error of at most 1/2^latSubBits (6.25%).
// Values below 2^(latSubBits+1) ns are exact.
const (
	latSubBits   = 4
	latSub       = 1 << latSubBits
	latExact     = 2 * latSub // values < latExact map to themselves
	latNumBucket = latExact + (63-latSubBits)*latSub
)

// latBucket maps a nanosecond value onto its bucket index.
func latBucket(v uint64) int {
	if v < latExact {
		return int(v)
	}
	o := uint(bits.Len64(v)) - 1 // >= latSubBits+1
	sub := (v >> (o - latSubBits)) & (latSub - 1)
	return latExact + int(o-latSubBits-1)*latSub + int(sub)
}

// latUpper is the largest value mapping to bucket idx — the value a
// quantile read reports for it ("at least q of the samples are <= this").
func latUpper(idx int) uint64 {
	if idx < latExact {
		return uint64(idx)
	}
	o := uint(latSubBits+1) + uint(idx-latExact)/latSub
	sub := uint64(idx-latExact) % latSub
	lower := uint64(1)<<o + sub<<(o-latSubBits)
	return lower + 1<<(o-latSubBits) - 1
}

// metricShard is one multi-word register. All fields are atomics so a
// torn read is impossible at the word level; the sequence word makes
// the multi-word view coherent. Shards are heap-allocated separately
// (a slice of pointers), which keeps different shards' hot words off
// each other's cache lines without explicit padding.
type metricShard struct {
	seq atomic.Uint64

	accepted atomic.Uint64 // jobs admitted (queued or cache-answered)
	queued   atomic.Uint64
	running  atomic.Uint64
	done     atomic.Uint64
	failed   atomic.Uint64
	canceled atomic.Uint64
	cached   atomic.Uint64 // subset of done answered by the cache

	panics          atomic.Uint64
	shedQueueFull   atomic.Uint64
	shedClientQuota atomic.Uint64
	shedCost        atomic.Uint64

	latCount atomic.Uint64
	latSum   atomic.Uint64 // nanoseconds
	latMax   atomic.Uint64
	lat      [latNumBucket]atomic.Uint64
}

// update runs f as one atomic multi-word event: acquire the sequence
// (even -> odd), mutate, release (odd -> even). The loop only ever
// waits out another writer — a reader cannot hold the sequence.
func (s *metricShard) update(f func(*metricShard)) {
	for i := 0; ; i++ {
		v := s.seq.Load()
		if v&1 == 0 && s.seq.CompareAndSwap(v, v+1) {
			f(s)
			s.seq.Store(v + 2)
			return
		}
		if i%32 == 31 {
			// On a single P the holder may be preempted mid-event;
			// yield so it can finish instead of live-spinning.
			runtime.Gosched()
		}
	}
}

// shardView is a coherent copy of one shard's counters.
type shardView struct {
	accepted, queued, running, done, failed, canceled, cached uint64
	panics, shedQueueFull, shedClientQuota, shedCost          uint64
	latCount, latSum, latMax                                  uint64
	lat                                                       [latNumBucket]uint64
}

// read copies the shard between two equal even sequence reads.
func (s *metricShard) read(into *shardView) {
	for i := 0; ; i++ {
		v1 := s.seq.Load()
		if v1&1 == 0 {
			into.accepted = s.accepted.Load()
			into.queued = s.queued.Load()
			into.running = s.running.Load()
			into.done = s.done.Load()
			into.failed = s.failed.Load()
			into.canceled = s.canceled.Load()
			into.cached = s.cached.Load()
			into.panics = s.panics.Load()
			into.shedQueueFull = s.shedQueueFull.Load()
			into.shedClientQuota = s.shedClientQuota.Load()
			into.shedCost = s.shedCost.Load()
			into.latCount = s.latCount.Load()
			into.latSum = s.latSum.Load()
			into.latMax = s.latMax.Load()
			for j := range s.lat {
				into.lat[j] = s.lat[j].Load()
			}
			if s.seq.Load() == v1 {
				return
			}
		}
		if i%32 == 31 {
			runtime.Gosched()
		}
	}
}

// add folds a coherent shard view into the merge.
func (v *shardView) add(o *shardView) {
	v.accepted += o.accepted
	v.queued += o.queued
	v.running += o.running
	v.done += o.done
	v.failed += o.failed
	v.canceled += o.canceled
	v.cached += o.cached
	v.panics += o.panics
	v.shedQueueFull += o.shedQueueFull
	v.shedClientQuota += o.shedClientQuota
	v.shedCost += o.shedCost
	v.latCount += o.latCount
	v.latSum += o.latSum
	if o.latMax > v.latMax {
		v.latMax = o.latMax
	}
	for j, c := range o.lat {
		v.lat[j] += c
	}
}

// quantile reports the upper bound of the first bucket covering at
// least ceil(q*count) samples — the same "at least q of the samples
// are <= v" contract as stats.Distribution.Quantile.
func (v *shardView) quantile(q float64) uint64 {
	if v.latCount == 0 {
		return 0
	}
	need := uint64(q*float64(v.latCount) + 0.9999999)
	if need < 1 {
		need = 1
	}
	if need > v.latCount {
		need = v.latCount
	}
	var seen uint64
	for i, c := range v.lat {
		seen += c
		if seen >= need {
			u := latUpper(i)
			if u > v.latMax {
				// The top occupied bucket's upper bound can overshoot
				// the true maximum; the exact max is tracked aside.
				u = v.latMax
			}
			return u
		}
	}
	return v.latMax
}

// simAgg is the per-scheme simulation aggregate. Cells take
// milliseconds to simulate, so one mutex around a fold-per-cell is
// nowhere near the per-job hot path.
type simAgg struct {
	mu       sync.Mutex
	sim      map[string]*stats.Counters
	simCells map[string]uint64
}

func (a *simAgg) simObserved(scheme string, c *stats.Counters) {
	a.mu.Lock()
	if a.sim == nil {
		a.sim = make(map[string]*stats.Counters)
		a.simCells = make(map[string]uint64)
	}
	agg, ok := a.sim[scheme]
	if !ok {
		agg = &stats.Counters{}
		a.sim[scheme] = agg
	}
	agg.Add(c)
	a.simCells[scheme]++
	a.mu.Unlock()
}

// SimSnapshot is the point-in-time per-scheme simulation aggregate.
type SimSnapshot struct {
	Cells    uint64
	Counters stats.Counters
}

func (a *simAgg) simSnapshot() map[string]SimSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]SimSnapshot, len(a.sim))
	for scheme, c := range a.sim {
		out[scheme] = SimSnapshot{Cells: a.simCells[scheme], Counters: c.Clone()}
	}
	return out
}

// shardedMetrics is the job-accounting recorder the pool writes to on
// every lifecycle event.
//
// Shard discipline: every job draws one shard at submission
// (pickShard) and reports every later lifecycle event against that
// same shard, so a scraper that reads each shard coherently sees
// exact conservation — accepted == queued + running + done + failed +
// canceled — no matter how the scrape interleaves with the storm.
type shardedMetrics struct {
	shards []*metricShard
	rr     atomic.Uint32

	workers atomic.Int64

	simAgg
}

// newShardedMetrics sizes the shard set to the writer population: the
// workers plus submission-path goroutines. More shards than writers
// keeps writer-writer CAS collisions rare; the count is clamped so an
// oversized pool does not make scrapes arbitrarily wide.
func newShardedMetrics(workers int) *shardedMetrics {
	n := workers * 2
	if p := runtime.GOMAXPROCS(0); n < p {
		n = p
	}
	if n < 4 {
		n = 4
	}
	if n > 64 {
		n = 64
	}
	m := &shardedMetrics{shards: make([]*metricShard, n)}
	for i := range m.shards {
		m.shards[i] = &metricShard{}
	}
	return m
}

func (m *shardedMetrics) setWorkers(n int) { m.workers.Store(int64(n)) }

func (m *shardedMetrics) pickShard() uint32 {
	return m.rr.Add(1) % uint32(len(m.shards))
}

func (m *shardedMetrics) shard(i uint32) *metricShard {
	return m.shards[int(i)%len(m.shards)]
}

// observeLatency records one job latency; elapsed is clamped to 1ns so
// a cache answer faster than the clock's resolution still registers as
// a real (nonzero) service latency.
func clampNS(elapsed time.Duration) uint64 {
	ns := elapsed.Nanoseconds()
	if ns < 1 {
		return 1
	}
	return uint64(ns)
}

func (s *metricShard) observeLatency(ns uint64) {
	s.latCount.Add(1)
	s.latSum.Add(ns)
	if ns > s.latMax.Load() {
		s.latMax.Store(ns)
	}
	s.lat[latBucket(ns)].Add(1)
}

func (m *shardedMetrics) jobQueued(shard uint32) {
	m.shard(shard).update(func(s *metricShard) {
		s.accepted.Add(1)
		s.queued.Add(1)
	})
}

func (m *shardedMetrics) jobStarted(shard uint32) {
	m.shard(shard).update(func(s *metricShard) {
		s.queued.Add(^uint64(0))
		s.running.Add(1)
	})
}

func (m *shardedMetrics) jobFinished(shard uint32, st Status, elapsed time.Duration) {
	ns := clampNS(elapsed)
	m.shard(shard).update(func(s *metricShard) {
		s.running.Add(^uint64(0))
		switch st {
		case StatusDone:
			s.done.Add(1)
		case StatusFailed:
			s.failed.Add(1)
		default:
			s.canceled.Add(1)
		}
		s.observeLatency(ns)
	})
}

func (m *shardedMetrics) jobDroppedQueued(shard uint32) {
	m.shard(shard).update(func(s *metricShard) {
		s.queued.Add(^uint64(0))
		s.canceled.Add(1)
	})
}

// jobCached accounts a submission answered directly by the result
// cache: a completed job that never occupied a worker, with its real
// measured submit-to-answer latency (the fix for the hard-0µs record
// that used to pull cache-hot p50/mean to zero) and a cached marker so
// the cached/uncached split stays visible.
func (m *shardedMetrics) jobCached(shard uint32, elapsed time.Duration) {
	ns := clampNS(elapsed)
	m.shard(shard).update(func(s *metricShard) {
		s.accepted.Add(1)
		s.done.Add(1)
		s.cached.Add(1)
		s.observeLatency(ns)
	})
}

func (m *shardedMetrics) jobShed(reason ShedReason) {
	m.shard(m.pickShard()).update(func(s *metricShard) {
		switch reason {
		case ShedClientQuota:
			s.shedClientQuota.Add(1)
		case ShedCost:
			s.shedCost.Add(1)
		default:
			s.shedQueueFull.Add(1)
		}
	})
}

func (m *shardedMetrics) panicRecovered() {
	m.shard(m.pickShard()).update(func(s *metricShard) {
		s.panics.Add(1)
	})
}

// merge folds a coherent copy of every shard into one view. Each
// per-shard copy is internally consistent, and every job's events all
// land on one shard, so the sum preserves exact conservation.
func (m *shardedMetrics) merge() shardView {
	var total, one shardView
	for _, s := range m.shards {
		s.read(&one)
		total.add(&one)
	}
	return total
}

// latencyStats returns the job-latency histogram as a Distribution of
// nanoseconds and the exact sum of all observations in seconds (the
// bucketed distribution loses per-sample exactness, the running sum
// does not).
func (m *shardedMetrics) latencyStats() (stats.Distribution, float64) {
	v := m.merge()
	var d stats.Distribution
	for i, c := range v.lat {
		d.ObserveN(latUpper(i), c)
	}
	return d, float64(v.latSum) / 1e9
}

func (m *shardedMetrics) snapshot(cs CacheStats) MetricsSnapshot {
	v := m.merge()
	workers := int(m.workers.Load())
	s := MetricsSnapshot{
		JobsAccepted:    v.accepted,
		JobsQueued:      v.queued,
		JobsRunning:     v.running,
		JobsDone:        v.done,
		JobsFailed:      v.failed,
		JobsCanceled:    v.canceled,
		JobsCached:      v.cached,
		JobsShed:        v.shedQueueFull + v.shedClientQuota + v.shedCost,
		ShedQueueFull:   v.shedQueueFull,
		ShedClientQuota: v.shedClientQuota,
		ShedCost:        v.shedCost,
		PanicsTotal:     v.panics,

		Workers:      workers,
		BusyWorkers:  int(v.running),
		MetricShards: len(m.shards),

		CacheEntries:   cs.Entries,
		CacheHits:      cs.Hits,
		CacheDiskHits:  cs.DiskHits,
		CacheCoalesced: cs.Coalesced,
		CacheMisses:    cs.Misses,
		CacheHitRatio:  cs.HitRatio(),

		JobLatencyMeanMS: 0,
		JobLatencyP50MS:  float64(v.quantile(0.5)) / 1e6,
		JobLatencyP99MS:  float64(v.quantile(0.99)) / 1e6,
		JobLatencyMaxMS:  float64(v.latMax) / 1e6,
		JobsMeasured:     v.latCount,
	}
	if v.latCount > 0 {
		s.JobLatencyMeanMS = float64(v.latSum) / float64(v.latCount) / 1e6
	}
	if workers > 0 {
		s.PoolUtilization = float64(v.running) / float64(workers)
	}
	return s
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

	// The 429 taxonomy: JobsShed split by admission tier.
	ShedQueueFull   uint64 `json:"shed_queue_full"`
	ShedClientQuota uint64 `json:"shed_client_quota"`
	ShedCost        uint64 `json:"shed_cost"`

	Workers         int     `json:"workers"`
	BusyWorkers     int     `json:"busy_workers"`
	PoolUtilization float64 `json:"pool_utilization"` // busy / workers
	MetricShards    int     `json:"metric_shards,omitempty"`

	// Admission state (filled by Pool.Metrics from queue bookkeeping).
	QueueCost     uint64 `json:"queue_cost"`
	ActiveClients int    `json:"active_clients"`

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
