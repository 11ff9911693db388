package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---------------------------------------------------------------------
// Satellite regression: cache-hit latency must be the real measured
// submit-to-answer time, never a hard 0.

func TestCachedJobLatencyNonzero(t *testing.T) {
	// The sharded recorder is the pool's only one; the subtest keeps
	// the name it had when a locked recorder ran beside it.
	t.Run("sharded", func(t *testing.T) {
		setHook(t, func(spec JobSpec) (*JobResult, error) {
			return &JobResult{Spec: spec}, nil
		})
		p := testPool(t, PoolConfig{Workers: 1})
		spec := JobSpec{Experiment: ExperimentCell, Scheme: "SP", Windows: 6, Behavior: "high-fine",
			Draft: testSizes.Draft, Dict: testSizes.Dict}

		j1, err := p.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j1.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		j2, err := p.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !j2.CacheHit() {
			t.Fatal("second submission of an identical spec was not a cache hit")
		}

		m := p.Metrics()
		if m.JobsCached != 1 {
			t.Fatalf("JobsCached = %d, want 1", m.JobsCached)
		}
		if m.JobsMeasured != 2 {
			t.Fatalf("JobsMeasured = %d, want 2 (executed job + cache answer)", m.JobsMeasured)
		}
		// Two samples; p50 covers ceil(0.5*2)=1 of them, i.e. the
		// smaller — the cache answer. The old recorder stored it as a
		// hard 0, which this pins against.
		if m.JobLatencyP50MS <= 0 {
			t.Errorf("cache-hit latency recorded as %v ms, want > 0", m.JobLatencyP50MS)
		}
		if m.JobLatencyMeanMS <= 0 {
			t.Errorf("latency mean = %v ms, want > 0", m.JobLatencyMeanMS)
		}
	})
}

// ---------------------------------------------------------------------
// Satellite regression: concurrent cold gets on one key must coalesce
// onto a single remote fetch.

// countingRemote counts Fetch calls and serves every key after a short
// hold, so concurrent callers genuinely overlap.
type countingRemote struct {
	fetches atomic.Int64
	hold    time.Duration
}

func (r *countingRemote) Fetch(ctx context.Context, key string) (*JobResult, bool) {
	r.fetches.Add(1)
	time.Sleep(r.hold)
	return &JobResult{Output: "remote:" + key}, true
}

func TestCacheColdGetsCoalesce(t *testing.T) {
	c, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	remote := &countingRemote{hold: 20 * time.Millisecond}
	c.SetRemote(remote)

	const callers = 16
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		got   [callers]*JobResult
	)
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			v, ok := c.Get(context.Background(), "deadbeef")
			if !ok {
				t.Errorf("caller %d: cold get failed", i)
				return
			}
			got[i] = v
		}(i)
	}
	// Release all callers together; the remote's hold keeps the leader
	// in flight while the followers arrive.
	start.Done()
	done.Wait()

	if n := remote.fetches.Load(); n != 1 {
		t.Fatalf("RemoteCache.Fetch called %d times for one key, want exactly 1", n)
	}
	for i, v := range got {
		if v == nil || v.Output != "remote:deadbeef" {
			t.Fatalf("caller %d got %+v, want the coalesced remote result", i, v)
		}
	}
	st := c.Stats()
	if st.PeerHits != 1 {
		t.Errorf("PeerHits = %d, want 1", st.PeerHits)
	}
	if st.Coalesced != callers-1 {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, callers-1)
	}
	if st.Misses != 0 {
		t.Errorf("Misses = %d, want 0", st.Misses)
	}
}

// TestCacheLocalGetBypassesFlights pins the deadlock guard: the
// peer-fill endpoint's GetLocal must not join a flight that may itself
// be waiting on a peer.
func TestCacheLocalGetBypassesFlights(t *testing.T) {
	c, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	c.SetRemote(remoteFunc(func(ctx context.Context, key string) (*JobResult, bool) {
		<-release
		return nil, false
	}))

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Get(context.Background(), "cafe") // leader, parked on the remote
	}()
	// Wait until the leader's flight is registered.
	for i := 0; ; i++ {
		c.mu.Lock()
		_, inFlight := c.flights["cafe"]
		c.mu.Unlock()
		if inFlight {
			break
		}
		if i > 1000 {
			t.Fatal("leader flight never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// GetLocal must answer (miss) immediately instead of joining the
	// parked flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := c.GetLocal("cafe"); ok {
			t.Error("GetLocal reported a hit for an uncached key")
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("GetLocal blocked behind an in-flight remote fetch")
	}
	close(release)
	<-leaderDone
}

type remoteFunc func(ctx context.Context, key string) (*JobResult, bool)

func (f remoteFunc) Fetch(ctx context.Context, key string) (*JobResult, bool) { return f(ctx, key) }

// ---------------------------------------------------------------------
// Admission tiers.

func TestAdmissionPerClientQuota(t *testing.T) {
	block := make(chan struct{})
	setHook(t, func(spec JobSpec) (*JobResult, error) {
		<-block
		return &JobResult{Spec: spec}, nil
	})
	defer close(block)
	p := testPool(t, PoolConfig{Workers: 1, PerClientQueue: 2})

	spec := func(mc uint64) JobSpec {
		return JobSpec{Experiment: ExperimentCell, Scheme: "NS", Windows: 4, Behavior: "high-fine",
			Draft: testSizes.Draft, Dict: testSizes.Dict, MaxCycles: mc}
	}
	// The worker absorbs the first job; wait for the dequeue so the next
	// two fill alice's share exactly.
	if _, err := p.SubmitFrom("alice", spec(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Metrics().JobsRunning != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	for mc := uint64(2); mc <= 3; mc++ {
		if _, err := p.SubmitFrom("alice", spec(mc)); err != nil {
			t.Fatalf("submission %d: %v", mc, err)
		}
	}

	_, err := p.SubmitFrom("alice", spec(4))
	if !errors.Is(err, ErrClientQuota) {
		t.Fatalf("over-share submission: err = %v, want ErrClientQuota", err)
	}
	if !errors.Is(err, ErrPoolSaturated) {
		t.Fatal("ErrClientQuota must wrap ErrPoolSaturated for the generic 429 mapping")
	}
	// Another client is still admitted.
	if _, err := p.SubmitFrom("bob", spec(5)); err != nil {
		t.Fatalf("other client rejected: %v", err)
	}
	// Anonymous submissions are exempt.
	if _, err := p.Submit(spec(6)); err != nil {
		t.Fatalf("anonymous submission rejected: %v", err)
	}

	m := p.Metrics()
	if m.ShedClientQuota != 1 {
		t.Errorf("ShedClientQuota = %d, want 1", m.ShedClientQuota)
	}
	if m.ActiveClients != 2 {
		t.Errorf("ActiveClients = %d, want 2 (alice, bob)", m.ActiveClients)
	}
}

func TestAdmissionCostShedding(t *testing.T) {
	block := make(chan struct{})
	setHook(t, func(spec JobSpec) (*JobResult, error) {
		<-block
		return &JobResult{Spec: spec}, nil
	})
	defer close(block)

	small := JobSpec{Experiment: ExperimentCell, Scheme: "NS", Windows: 4, Behavior: "high-fine",
		Draft: testSizes.Draft, Dict: testSizes.Dict}
	big := small
	big.Windows = 32
	big.MaxCycles = 7 // distinct hash
	if small.EstimateCost() >= big.EstimateCost() {
		t.Fatalf("cost model: small %d !< big %d", small.EstimateCost(), big.EstimateCost())
	}

	// Budget: the worker absorbs one job, then one small job fits in the
	// queue but a big one does not.
	p := testPool(t, PoolConfig{Workers: 1, MaxQueueCost: 2 * small.EstimateCost()})
	first := small
	first.MaxCycles = 1
	if _, err := p.SubmitFrom("", first); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Metrics().JobsRunning != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	second := small
	second.MaxCycles = 2
	if _, err := p.SubmitFrom("", second); err != nil {
		t.Fatalf("small job within budget rejected: %v", err)
	}
	_, err := p.SubmitFrom("", big)
	if !errors.Is(err, ErrCostShed) {
		t.Fatalf("over-budget submission: err = %v, want ErrCostShed", err)
	}
	m := p.Metrics()
	if m.ShedCost != 1 {
		t.Errorf("ShedCost = %d, want 1", m.ShedCost)
	}
	if m.QueueCost != second.EstimateCost() {
		t.Errorf("QueueCost = %d, want %d (the one queued job)", m.QueueCost, second.EstimateCost())
	}
}

// TestShedReasonHeader pins the HTTP surface of the 429 taxonomy.
func TestShedReasonHeader(t *testing.T) {
	block := make(chan struct{})
	setHook(t, func(spec JobSpec) (*JobResult, error) {
		<-block
		return &JobResult{Spec: spec}, nil
	})
	defer close(block)
	p := testPool(t, PoolConfig{Workers: 1, PerClientQueue: 1})
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	submit := func(client string, mc int) *http.Response {
		body := fmt.Sprintf(`{"experiment":"cell","scheme":"NS","windows":4,"behavior":"high-fine","draft":%d,"dict":%d,"max_cycles":%d}`,
			testSizes.Draft, testSizes.Dict, mc)
		req, err := http.NewRequest("POST", srv.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if client != "" {
			req.Header.Set(ClientIDHeader, client)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := submit("carol", 1)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Metrics().JobsRunning != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp = submit("carol", 2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submission (fills the share): status %d, want 202", resp.StatusCode)
	}
	resp = submit("carol", 3)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-share submission: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(ShedReasonHeader); got != "client_quota" {
		t.Errorf("%s = %q, want %q", ShedReasonHeader, got, "client_quota")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// ---------------------------------------------------------------------
// Stress: Submit storm + /metrics scrapes + peer-fill cache reads,
// asserting the conservation invariant on every scrape. Run with
// -race this doubles as the satellite "scrape never blocks a writer"
// regression: the scrapers hammer snapshot() while every submitter and
// worker publishes, and the sharded recorder must keep every view
// coherent (no torn multi-word reads, no negative gauges).
func TestServingStressConservation(t *testing.T) {
	setHook(t, func(spec JobSpec) (*JobResult, error) {
		if spec.MaxCycles%7 == 0 {
			return nil, fmt.Errorf("%w: synthetic fault", ErrGuestFault)
		}
		return &JobResult{Spec: spec, Output: "ok"}, nil
	})
	p := testPool(t, PoolConfig{Workers: 4})
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	const (
		submitters  = 4
		perSubmit   = 150
		scrapers    = 2
		cacheProbes = 2
	)

	check := func(m MetricsSnapshot) {
		// Every term is uint64: a torn read or a lost event shows up as
		// either a giant value (negative wrapped) or a broken sum.
		terminal := m.JobsDone + m.JobsFailed + m.JobsCanceled
		if m.JobsAccepted != m.JobsQueued+m.JobsRunning+terminal {
			t.Errorf("conservation broken: accepted=%d queued=%d running=%d done=%d failed=%d canceled=%d",
				m.JobsAccepted, m.JobsQueued, m.JobsRunning, m.JobsDone, m.JobsFailed, m.JobsCanceled)
		}
		const tornThreshold = 1 << 62
		if m.JobsQueued > tornThreshold || m.JobsRunning > tornThreshold {
			t.Errorf("gauge went negative: queued=%d running=%d", m.JobsQueued, m.JobsRunning)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/metrics?format=json")
				if err != nil {
					continue
				}
				var m MetricsSnapshot
				err = json.NewDecoder(resp.Body).Decode(&m)
				resp.Body.Close()
				if err == nil {
					check(m)
				}
				// The text exposition exercises the histogram render path.
				if resp, err := http.Get(srv.URL + "/metrics"); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	hash := (JobSpec{Experiment: ExperimentCell, Scheme: "NS", Windows: 4, Behavior: "high-fine",
		Draft: testSizes.Draft, Dict: testSizes.Dict, MaxCycles: 1}).Hash()
	for c := 0; c < cacheProbes; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if resp, err := http.Get(srv.URL + "/v1/cache/" + hash); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}

	var submitWG sync.WaitGroup
	for s := 0; s < submitters; s++ {
		submitWG.Add(1)
		go func(s int) {
			defer submitWG.Done()
			for i := 0; i < perSubmit; i++ {
				spec := JobSpec{Experiment: ExperimentCell, Scheme: "NS", Windows: 4, Behavior: "high-fine",
					Draft: testSizes.Draft, Dict: testSizes.Dict,
					MaxCycles: uint64(s*perSubmit + i + 1)}
				j, err := p.Submit(spec)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%3 == 0 {
					_, _ = j.Wait(context.Background())
				}
			}
		}(s)
	}
	submitWG.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	// After the drain every accepted job must be terminal: nothing
	// leaked, nothing stayed queued or running.
	m := p.Metrics()
	check(m)
	if m.JobsQueued != 0 || m.JobsRunning != 0 {
		t.Errorf("after drain: queued=%d running=%d, want 0/0", m.JobsQueued, m.JobsRunning)
	}
	want := uint64(submitters * perSubmit)
	if m.JobsAccepted != want {
		t.Errorf("JobsAccepted = %d, want %d", m.JobsAccepted, want)
	}
	if m.JobsDone+m.JobsFailed+m.JobsCanceled != want {
		t.Errorf("terminal jobs = %d, want %d", m.JobsDone+m.JobsFailed+m.JobsCanceled, want)
	}
	if m.JobsFailed == 0 {
		t.Error("synthetic faults never landed; the failed path went unexercised")
	}
}
