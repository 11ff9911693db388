// Command winsimbench is the sustained-load generator for the serving
// layer: it drives a winsimd server (-url) or an in-process pool at a
// configurable request rate and concurrency with named workload mixes,
// measures submit-to-answer latency through stats.Distribution,
// asserts SLOs (p99 ceiling, sustained rate, zero dropped metric
// events) and writes a JSON trajectory (-out) CI can track.
//
// Usage:
//
//	winsimbench [-url http://host:8091] [-mix hot|cold|traced|faulty|mixed]
//	            [-rps 500] [-concurrency 32] [-duration 5s] [-scrapers 2]
//	            [-workers N] [-slo-p99 50ms] [-findmax] [-rampfactor 1.6]
//	            [-maxrps 100000] [-out FILE]
//
// Modes:
//
//   - Single run (default): drive one configuration at -rps for
//     -duration; exit 1 on SLO breach or dropped metric events.
//   - -findmax: ramp the rate by -rampfactor per step until the SLO
//     breaks; report the highest SLO-compliant rate.
//
// The scrapers are the adversarial load: each one hammers the metrics
// snapshot and the Prometheus render in a loop while the jobs publish
// their lifecycle events. Every scrape also checks the conservation
// invariant (accepted == queued+running+terminal); a violation counts
// as a dropped metric event and fails the run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cyclicwin/internal/simsvc"
	"cyclicwin/internal/stats"
)

// ---------------------------------------------------------------------
// Workload mixes.

// benchSizes keeps individual cells cheap so the bench measures the
// serving path, not the simulator.
const (
	benchDraft = 600
	benchDict  = 901
)

// coldBase offsets the MaxCycles watchdog so cold keys are distinct
// without ever tripping the budget (quick cells run ~1e5 cycles).
const coldBase = 1 << 40

// specFor builds the i-th request's spec for a mix. Mixes:
//
//	hot    — one fixed spec; after warmup every request is a cache hit
//	cold   — every request a distinct spec (distinct content hash)
//	traced — cold specs with event tracing armed
//	faulty — a 1-cycle budget, failing deterministically and fast
//	mixed  — hot/cold/traced/faulty round-robin with varied spec sizes
func specFor(mix string, i uint64) simsvc.JobSpec {
	base := simsvc.JobSpec{
		Experiment: simsvc.ExperimentCell,
		Scheme:     "NS", Windows: 8, Behavior: "high-fine",
		Draft: benchDraft, Dict: benchDict,
	}
	switch mix {
	case "hot":
		return base
	case "cold":
		base.MaxCycles = coldBase + i
		return base
	case "traced":
		base.MaxCycles = coldBase + i
		base.Trace = true
		return base
	case "faulty":
		base.MaxCycles = 1
		return base
	case "mixed":
		switch i % 8 {
		case 0, 1, 2, 3: // half the traffic cache-hot
			return base
		case 4:
			base.MaxCycles = coldBase + i
			base.Windows = 4 + int(i%4)*8 // mixed spec sizes: 4..28 windows
			base.Scheme = []string{"NS", "SNP", "SP"}[i%3]
			return base
		case 5:
			base.MaxCycles = coldBase + i
			base.Draft = benchDraft * 2
			base.Dict = benchDict*2 + 1
			return base
		case 6:
			base.MaxCycles = coldBase + i
			base.Trace = true
			return base
		default:
			base.MaxCycles = 1
			return base
		}
	default:
		log.Fatalf("winsimbench: unknown mix %q (want hot, cold, traced, faulty or mixed)", mix)
		return base
	}
}

// ---------------------------------------------------------------------
// Engines: where the requests go.

// engine abstracts the target: an in-process pool or a winsimd server.
// submit blocks until the job is terminal and classifies the outcome;
// scrape performs one adversarial metrics read and reports whether the
// scraped view was conserved; snapshot returns the service counters.
type engine interface {
	submit(ctx context.Context, spec simsvc.JobSpec) outcome
	scrape() bool
	snapshot() (simsvc.MetricsSnapshot, error)
	close()
}

type outcome struct {
	ok    bool // answered (done), including cache hits
	fault bool // deterministic job failure (faulty mix does this on purpose)
	shed  bool // 429 / ErrPoolSaturated
	err   bool // anything else
}

// conserved checks the multi-word invariant every scrape must see:
// pinning all of a job's lifecycle events to one metrics shard means
// accepted == queued + running + done + failed + canceled in every
// coherent view, and the gauges can never go negative (a negative
// uint64 shows up as a value near 2^64).
func conserved(m simsvc.MetricsSnapshot) bool {
	const torn = uint64(1) << 62
	if m.JobsQueued > torn || m.JobsRunning > torn {
		return false
	}
	return m.JobsAccepted == m.JobsQueued+m.JobsRunning+m.JobsDone+m.JobsFailed+m.JobsCanceled
}

// inprocEngine drives a pool directly.
type inprocEngine struct {
	pool *simsvc.Pool
}

func newInprocEngine(workers, maxQueue int) *inprocEngine {
	cache, err := simsvc.NewCache(0, "")
	if err != nil {
		log.Fatalf("winsimbench: %v", err)
	}
	pool := simsvc.NewPool(simsvc.PoolConfig{
		Workers:  workers,
		MaxQueue: maxQueue,
		Cache:    cache,
	})
	return &inprocEngine{pool: pool}
}

func (e *inprocEngine) submit(ctx context.Context, spec simsvc.JobSpec) outcome {
	j, err := e.pool.SubmitFrom("bench", spec)
	if err != nil {
		if errors.Is(err, simsvc.ErrPoolSaturated) {
			return outcome{shed: true}
		}
		return outcome{err: true}
	}
	if _, err := j.Wait(ctx); err != nil {
		if errors.Is(err, simsvc.ErrGuestFault) {
			return outcome{fault: true}
		}
		return outcome{err: true}
	}
	return outcome{ok: true}
}

func (e *inprocEngine) scrape() bool {
	m := e.pool.Metrics()
	_ = e.pool.WritePrometheus(io.Discard)
	return conserved(m)
}

func (e *inprocEngine) snapshot() (simsvc.MetricsSnapshot, error) { return e.pool.Metrics(), nil }

func (e *inprocEngine) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.pool.Drain(ctx)
}

// httpEngine drives a running winsimd. No retries: a load generator
// that silently retries is measuring its own backoff.
type httpEngine struct {
	base   string
	client *http.Client
}

func newHTTPEngine(base string) *httpEngine {
	return &httpEngine{base: base, client: &http.Client{Timeout: 2 * time.Minute}}
}

func (e *httpEngine) submit(ctx context.Context, spec simsvc.JobSpec) outcome {
	body, err := json.Marshal(map[string]any{"spec": spec})
	if err != nil {
		return outcome{err: true}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return outcome{err: true}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(simsvc.ClientIDHeader, "winsimbench")
	resp, err := e.client.Do(req)
	if err != nil {
		return outcome{err: true}
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	switch {
	case resp.StatusCode < 300:
		return outcome{ok: true}
	case resp.StatusCode == http.StatusTooManyRequests:
		return outcome{shed: true}
	case resp.StatusCode == http.StatusUnprocessableEntity:
		return outcome{fault: true}
	default:
		return outcome{err: true}
	}
}

func (e *httpEngine) scrape() bool {
	// Text exposition first (the expensive render)...
	if resp, err := e.client.Get(e.base + "/metrics"); err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// ...then the JSON snapshot, which carries the invariant.
	m, err := e.snapshot()
	if err != nil {
		return true // transport trouble is not a conservation violation
	}
	return conserved(m)
}

func (e *httpEngine) snapshot() (simsvc.MetricsSnapshot, error) {
	resp, err := e.client.Get(e.base + "/metrics?format=json")
	if err != nil {
		return simsvc.MetricsSnapshot{}, err
	}
	defer resp.Body.Close()
	var m simsvc.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return simsvc.MetricsSnapshot{}, err
	}
	return m, nil
}

func (e *httpEngine) close() {}

// ---------------------------------------------------------------------
// The measured run.

// runResult is one measured window at one target rate — the unit of
// the BENCH_serve.json trajectory.
type runResult struct {
	Mix         string  `json:"mix"`
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	DurationSec float64 `json:"duration_sec"`

	Requests uint64 `json:"requests"`
	Answered uint64 `json:"answered"`
	Faults   uint64 `json:"faults"`
	Shed     uint64 `json:"shed"`
	Errors   uint64 `json:"errors"`

	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`

	Scrapes       uint64 `json:"scrapes"`
	DroppedEvents uint64 `json:"dropped_events"`

	SLOOK     bool   `json:"slo_ok"`
	SLOReason string `json:"slo_reason,omitempty"`
}

type sloConfig struct {
	p99        time.Duration // 0 = no latency SLO
	minachieve float64       // fraction of target that must be achieved
}

// driveOnce runs one measured window: an open-loop pacer feeding a
// bounded worker set, with scraper goroutines reading metrics the
// whole time. Latencies are recorded per worker (no shared lock on the
// measurement path) and merged into one exact stats.Distribution.
func driveOnce(eng engine, mix string, rps float64, concurrency, scrapers int, duration time.Duration, slo sloConfig, seq *uint64) runResult {
	type record struct {
		lat stats.Distribution // microseconds
		out [4]uint64          // ok, fault, shed, err
	}
	records := make([]record, concurrency)

	reqCh := make(chan uint64, concurrency)
	stop := make(chan struct{})
	var dropped, scrapes atomic.Uint64

	var scrapeWG sync.WaitGroup
	for s := 0; s < scrapers; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !eng.scrape() {
					dropped.Add(1)
				}
				scrapes.Add(1)
			}
		}()
	}

	var workWG sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			rec := &records[w]
			for i := range reqCh {
				spec := specFor(mix, i)
				t0 := time.Now()
				o := eng.submit(context.Background(), spec)
				lat := time.Since(t0)
				switch {
				case o.ok:
					rec.out[0]++
					rec.lat.Observe(uint64(lat.Microseconds()) + 1)
				case o.fault:
					rec.out[1]++
					rec.lat.Observe(uint64(lat.Microseconds()) + 1)
				case o.shed:
					rec.out[2]++
				default:
					rec.out[3]++
				}
			}
		}(w)
	}

	// Open-loop pacer: dispatch the number of requests the clock says
	// should exist by now. If the workers cannot keep up the pacer
	// blocks on the channel, and the shortfall shows up as achieved <
	// target — the "cannot sustain this rate" signal findmax ramps into.
	start := time.Now()
	var sent uint64
	for {
		elapsed := time.Since(start)
		if elapsed >= duration {
			break
		}
		due := uint64(elapsed.Seconds() * rps)
		for sent < due {
			reqCh <- atomic.AddUint64(seq, 1)
			sent++
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(reqCh)
	workWG.Wait()
	elapsed := time.Since(start)
	close(stop)
	scrapeWG.Wait()

	var merged stats.Distribution
	res := runResult{
		Mix:         mix,
		TargetRPS:   rps,
		DurationSec: elapsed.Seconds(),
		Requests:    sent,
		Scrapes:     scrapes.Load(),
	}
	for i := range records {
		merged.Merge(&records[i].lat)
		res.Answered += records[i].out[0]
		res.Faults += records[i].out[1]
		res.Shed += records[i].out[2]
		res.Errors += records[i].out[3]
	}
	res.AchievedRPS = float64(sent) / elapsed.Seconds()
	res.P50MS = float64(merged.Quantile(0.5)) / 1e3
	res.P90MS = float64(merged.Quantile(0.9)) / 1e3
	res.P99MS = float64(merged.Quantile(0.99)) / 1e3
	res.MaxMS = float64(merged.Max()) / 1e3
	res.MeanMS = merged.Mean() / 1e3
	res.DroppedEvents = dropped.Load()

	res.SLOOK = true
	switch {
	case res.DroppedEvents > 0:
		res.SLOOK, res.SLOReason = false, fmt.Sprintf("%d dropped metric events (conservation violated under scrape)", res.DroppedEvents)
	case res.Errors > 0:
		res.SLOOK, res.SLOReason = false, fmt.Sprintf("%d unexpected errors", res.Errors)
	case slo.p99 > 0 && res.P99MS > float64(slo.p99.Microseconds())/1e3:
		res.SLOOK, res.SLOReason = false, fmt.Sprintf("p99 %.2fms over SLO %.2fms", res.P99MS, float64(slo.p99.Microseconds())/1e3)
	case slo.minachieve > 0 && res.AchievedRPS < slo.minachieve*rps:
		res.SLOOK, res.SLOReason = false, fmt.Sprintf("achieved %.0f rps < %.0f%% of target %.0f", res.AchievedRPS, slo.minachieve*100, rps)
	}
	return res
}

// findMax ramps the rate until the SLO breaks and returns every step
// plus the highest compliant rate.
func findMax(eng engine, mix string, startRPS, rampFactor, maxRPS float64, concurrency, scrapers int, stepDur time.Duration, slo sloConfig, seq *uint64) ([]runResult, float64) {
	var steps []runResult
	var maxOK float64
	for rps := startRPS; rps <= maxRPS; rps *= rampFactor {
		step := driveOnce(eng, mix, rps, concurrency, scrapers, stepDur, slo, seq)
		steps = append(steps, step)
		log.Printf("winsimbench: %s @ %.0f rps -> achieved %.0f, p99 %.2fms, shed %d, dropped %d, slo_ok=%v %s",
			mix, rps, step.AchievedRPS, step.P99MS, step.Shed, step.DroppedEvents, step.SLOOK, step.SLOReason)
		if !step.SLOOK {
			break
		}
		maxOK = rps
	}
	return steps, maxOK
}

// benchRun is one configuration's full trajectory.
type benchRun struct {
	Name            string      `json:"name"`
	Workers         int         `json:"workers"`
	Concurrency     int         `json:"concurrency"`
	Scrapers        int         `json:"scrapers"`
	Steps           []runResult `json:"steps"`
	MaxCompliantRPS float64     `json:"max_compliant_rps"`
}

// benchFile is the BENCH_serve.json shape.
type benchFile struct {
	GeneratedUnix int64      `json:"generated_unix"`
	Host          string     `json:"host,omitempty"`
	SLOP99MS      float64    `json:"slo_p99_ms"`
	Runs          []benchRun `json:"runs"`
}

func main() {
	url := flag.String("url", "", "winsimd base URL; empty drives an in-process pool")
	mix := flag.String("mix", "hot", "workload mix: hot, cold, traced, faulty or mixed")
	rps := flag.Float64("rps", 500, "target request rate (findmax: starting rate)")
	concurrency := flag.Int("concurrency", 32, "maximum in-flight requests")
	duration := flag.Duration("duration", 5*time.Second, "measured window (single-run mode)")
	scrapers := flag.Int("scrapers", 2, "concurrent /metrics scrape goroutines (the adversarial load)")
	workers := flag.Int("workers", 0, "in-process pool workers (0 = GOMAXPROCS)")
	maxQueue := flag.Int("maxqueue", 4096, "in-process pool queue bound")
	sloP99 := flag.Duration("slo-p99", 250*time.Millisecond, "p99 latency SLO (0 = none)")
	minAchieve := flag.Float64("slo-achieve", 0.95, "fraction of the target rate that must be achieved")
	findmax := flag.Bool("findmax", false, "ramp the rate until the SLO breaks; report the max compliant rate")
	rampFactor := flag.Float64("rampfactor", 1.6, "findmax rate multiplier per step")
	maxRPS := flag.Float64("maxrps", 200000, "findmax rate ceiling")
	stepDur := flag.Duration("stepdur", 3*time.Second, "findmax per-step window")
	out := flag.String("out", "", "write the JSON trajectory here (default stdout)")
	flag.Parse()

	slo := sloConfig{p99: *sloP99, minachieve: *minAchieve}
	file := benchFile{
		GeneratedUnix: time.Now().Unix(),
		SLOP99MS:      float64(sloP99.Microseconds()) / 1e3,
	}

	var eng engine
	if *url != "" {
		eng, file.Host = newHTTPEngine(*url), *url
	} else {
		eng, file.Host = newInprocEngine(*workers, *maxQueue), "in-process"
	}
	var seq uint64
	// Warm the hot set so the measured window exercises the cache-hit
	// path instead of the first cold fill.
	if *mix == "hot" || *mix == "mixed" {
		eng.submit(context.Background(), specFor("hot", 0))
	}
	run := benchRun{Name: "run", Workers: *workers, Concurrency: *concurrency, Scrapers: *scrapers}
	exitCode := 0
	if *findmax {
		run.Steps, run.MaxCompliantRPS = findMax(eng, *mix, *rps, *rampFactor, *maxRPS, *concurrency, *scrapers, *stepDur, slo, &seq)
		if run.MaxCompliantRPS == 0 {
			log.Printf("winsimbench: no rate satisfied the SLO")
			exitCode = 1
		}
	} else {
		step := driveOnce(eng, *mix, *rps, *concurrency, *scrapers, *duration, slo, &seq)
		run.Steps = []runResult{step}
		if step.SLOOK {
			run.MaxCompliantRPS = step.TargetRPS
		} else {
			log.Printf("winsimbench: SLO BREACH: %s", step.SLOReason)
			exitCode = 1
		}
	}
	eng.close()
	file.Runs = []benchRun{run}

	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			log.Fatalf("winsimbench: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatalf("winsimbench: %v", err)
		}
		log.Printf("winsimbench: wrote %s", *out)
	} else {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(file)
	}
	os.Exit(exitCode)
}
