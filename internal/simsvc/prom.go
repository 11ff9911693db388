package simsvc

import (
	"io"
	"sort"

	"cyclicwin/internal/obs"
)

// jobLatencyBounds are the folded bucket bounds (in seconds) for the
// job-latency histogram: cache answers land in the first bucket, quick
// cells around tens of milliseconds, full figures in the seconds.
var jobLatencyBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60}

// WritePrometheus renders the pool, cache and per-scheme simulation
// counters in Prometheus text exposition format 0.0.4 — what winsimd
// serves on GET /metrics. Service-level families are prefixed winsimd_,
// simulation-level families winsim_.
func (p *Pool) WritePrometheus(w io.Writer) error {
	snap := p.Metrics()
	latency, latSum := p.metrics.latencyStats()
	sims := p.metrics.simSnapshot()

	pw := obs.NewWriter(w)

	pw.Header("winsimd_build_info", "Build metadata; the value is always 1.", "gauge")
	pw.Sample("winsimd_build_info", obs.L("version", Version, "commit", Commit()), 1)

	pw.Header("winsimd_workers", "Configured worker count.", "gauge")
	pw.Sample("winsimd_workers", nil, float64(snap.Workers))
	pw.Header("winsimd_busy_workers", "Workers currently executing a job.", "gauge")
	pw.Sample("winsimd_busy_workers", nil, float64(snap.BusyWorkers))
	pw.Header("winsimd_pool_utilization", "Busy workers divided by configured workers.", "gauge")
	pw.Sample("winsimd_pool_utilization", nil, snap.PoolUtilization)

	pw.Header("winsimd_jobs_queued", "Jobs waiting for a worker.", "gauge")
	pw.Sample("winsimd_jobs_queued", nil, float64(snap.JobsQueued))
	pw.Header("winsimd_jobs_running", "Jobs currently executing.", "gauge")
	pw.Sample("winsimd_jobs_running", nil, float64(snap.JobsRunning))
	pw.Header("winsimd_jobs_total", "Jobs by terminal state.", "counter")
	pw.Sample("winsimd_jobs_total", obs.L("state", "done"), float64(snap.JobsDone))
	pw.Sample("winsimd_jobs_total", obs.L("state", "failed"), float64(snap.JobsFailed))
	pw.Sample("winsimd_jobs_total", obs.L("state", "canceled"), float64(snap.JobsCanceled))
	pw.Sample("winsimd_jobs_total", obs.L("state", "shed"), float64(snap.JobsShed))
	pw.Header("winsimd_jobs_cached_total", "Submissions answered directly by the result cache (subset of done).", "counter")
	pw.Sample("winsimd_jobs_cached_total", nil, float64(snap.JobsCached))
	pw.Header("winsimd_panics_total", "Simulation panics caught by the worker recovery barrier.", "counter")
	pw.Sample("winsimd_panics_total", nil, float64(snap.PanicsTotal))

	pw.Header("winsimd_admission_rejects_total", "Submissions rejected by the admission tiers, by reason.", "counter")
	pw.Sample("winsimd_admission_rejects_total", obs.L("reason", ShedQueueFull.String()), float64(snap.ShedQueueFull))
	pw.Sample("winsimd_admission_rejects_total", obs.L("reason", ShedClientQuota.String()), float64(snap.ShedClientQuota))
	pw.Sample("winsimd_admission_rejects_total", obs.L("reason", ShedCost.String()), float64(snap.ShedCost))
	pw.Header("winsimd_queue_cost", "Summed cost estimate (threads x windows x text length) of the queued jobs.", "gauge")
	pw.Sample("winsimd_queue_cost", nil, float64(snap.QueueCost))
	pw.Header("winsimd_admission_clients", "Distinct clients currently holding queued jobs.", "gauge")
	pw.Sample("winsimd_admission_clients", nil, float64(snap.ActiveClients))

	pw.Header("winsimd_cache_entries", "Entries resident in the in-memory result cache.", "gauge")
	pw.Sample("winsimd_cache_entries", nil, float64(snap.CacheEntries))
	pw.Header("winsimd_cache_hits_total", "Cache hits by tier.", "counter")
	pw.Sample("winsimd_cache_hits_total", obs.L("tier", "memory"), float64(snap.CacheHits))
	pw.Sample("winsimd_cache_hits_total", obs.L("tier", "disk"), float64(snap.CacheDiskHits))
	pw.Header("winsimd_cache_misses_total", "Cache misses.", "counter")
	pw.Sample("winsimd_cache_misses_total", nil, float64(snap.CacheMisses))
	pw.Header("winsimd_cache_coalesced_total", "Cold lookups answered by joining another caller's in-flight fetch.", "counter")
	pw.Sample("winsimd_cache_coalesced_total", nil, float64(snap.CacheCoalesced))

	pw.Header("winsimd_job_latency_seconds", "Wall-clock latency of executed jobs (cache answers at their real measured latency).", "histogram")
	lb, _, lcount := obs.FoldBuckets(&latency, jobLatencyBounds, 1e-9) // ns -> s
	// The recorder keeps the exact running sum even where the bucketed
	// distribution is approximate; prefer it for the _sum series.
	pw.Histogram("winsimd_job_latency_seconds", nil, lb, latSum, lcount)

	schemes := make([]string, 0, len(sims))
	for s := range sims {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)

	pw.Header("winsim_cells_simulated_total", "Simulation cells executed (not answered from cache), by scheme.", "counter")
	for _, s := range schemes {
		pw.Sample("winsim_cells_simulated_total", obs.L("scheme", s), float64(sims[s].Cells))
	}
	pw.Header("winsim_context_switches_total", "Context switches performed by the window manager.", "counter")
	for _, s := range schemes {
		pw.Sample("winsim_context_switches_total", obs.L("scheme", s), float64(sims[s].Counters.Switches))
	}
	pw.Header("winsim_zero_transfer_switches_total", "Best-case context switches that moved no window.", "counter")
	for _, s := range schemes {
		pw.Sample("winsim_zero_transfer_switches_total", obs.L("scheme", s), float64(sims[s].Counters.ZeroTransferSwitches))
	}
	pw.Header("winsim_window_instructions_total", "Executed save and restore instructions.", "counter")
	for _, s := range schemes {
		pw.Sample("winsim_window_instructions_total", obs.L("scheme", s, "op", "save"), float64(sims[s].Counters.Saves))
		pw.Sample("winsim_window_instructions_total", obs.L("scheme", s, "op", "restore"), float64(sims[s].Counters.Restores))
	}
	pw.Header("winsim_window_traps_total", "Window overflow and underflow traps.", "counter")
	for _, s := range schemes {
		pw.Sample("winsim_window_traps_total", obs.L("scheme", s, "kind", "overflow"), float64(sims[s].Counters.OverflowTraps))
		pw.Sample("winsim_window_traps_total", obs.L("scheme", s, "kind", "underflow"), float64(sims[s].Counters.UnderflowTraps))
	}
	pw.Header("winsim_windows_transferred_total", "Windows moved between the register file and memory, by cause.", "counter")
	for _, s := range schemes {
		c := sims[s].Counters
		pw.Sample("winsim_windows_transferred_total", obs.L("scheme", s, "cause", "switch_save"), float64(c.SwitchSaves))
		pw.Sample("winsim_windows_transferred_total", obs.L("scheme", s, "cause", "switch_restore"), float64(c.SwitchRestores))
		pw.Sample("winsim_windows_transferred_total", obs.L("scheme", s, "cause", "overflow_trap"), float64(c.TrapSaves))
		pw.Sample("winsim_windows_transferred_total", obs.L("scheme", s, "cause", "underflow_trap"), float64(c.TrapRestores))
	}
	pw.Header("winsim_migrations_total", "Cross-core thread migrations of T3 multi-core cells.", "counter")
	for _, s := range schemes {
		pw.Sample("winsim_migrations_total", obs.L("scheme", s), float64(sims[s].Counters.Migrations))
	}
	pw.Header("winsim_migration_saves_total", "Windows flushed by cross-core migrations.", "counter")
	for _, s := range schemes {
		pw.Sample("winsim_migration_saves_total", obs.L("scheme", s), float64(sims[s].Counters.MigrationSaves))
	}
	pw.Header("winsim_preemptions_total", "Involuntary thread preemptions (quantum expiry or priority arrival).", "counter")
	for _, s := range schemes {
		pw.Sample("winsim_preemptions_total", obs.L("scheme", s), float64(sims[s].Counters.Preemptions))
	}
	pw.Header("winsim_switch_cost_cycles", "Exact distribution of individual context-switch costs in cycles.", "histogram")
	for _, s := range schemes {
		d := sims[s].Counters.SwitchCost
		b, sum, count := obs.DistributionBuckets(&d)
		pw.Histogram("winsim_switch_cost_cycles", obs.L("scheme", s), b, sum, count)
	}

	return pw.Err()
}
