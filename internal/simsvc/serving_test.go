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
// Cache singleflight: concurrent cold gets on one key wait for the one
// caller already filling it instead of each reading the disk.

// openFlight registers an in-progress fill for key, exactly as the
// leading Get does, and returns it; the test completes it with
// finishFlight.
func openFlight(c *Cache, key string) *cacheFlight {
	f := &cacheFlight{done: make(chan struct{})}
	c.mu.Lock()
	c.flights[key] = f
	c.mu.Unlock()
	return f
}

// finishFlight publishes the leader's answer and releases its waiters,
// as the end of the leading Get does.
func finishFlight(c *Cache, key string, f *cacheFlight, v *JobResult, ok bool) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	f.v, f.ok = v, ok
	close(f.done)
}

// waitCoalesced polls until n callers have joined a flight.
func waitCoalesced(t *testing.T, c *Cache, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < n {
		if time.Now().After(deadline) {
			t.Fatalf("Coalesced = %d after 5s, want %d", c.Stats().Coalesced, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheColdGetsCoalesce(t *testing.T) {
	c, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	const key = "deadbeef"
	f := openFlight(c, key)

	const callers = 16
	var (
		done     sync.WaitGroup
		returned atomic.Int64
		got      [callers]*JobResult
	)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			v, ok := c.Get(context.Background(), key)
			returned.Add(1)
			if !ok {
				t.Errorf("caller %d: cold get failed", i)
				return
			}
			got[i] = v
		}(i)
	}
	waitCoalesced(t, c, callers)
	if n := returned.Load(); n != 0 {
		t.Fatalf("%d callers returned while the flight was still open", n)
	}

	want := &JobResult{Output: "leader:" + key}
	finishFlight(c, key, f, want, true)
	done.Wait()

	for i, v := range got {
		if v != want {
			t.Fatalf("caller %d got %+v, want the leader's result", i, v)
		}
	}
	st := c.Stats()
	if st.Coalesced != callers {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, callers)
	}
	if st.Hits != 0 || st.DiskHits != 0 || st.Misses != 0 {
		t.Errorf("stats = %+v: waiters must count only as coalesced", st)
	}
}

// TestCacheGetCancelledContext: the context bounds only the wait on
// another caller's flight. A waiter whose context ends gives up with a
// miss while the flight is still open; a memory hit is served whatever
// the context.
func TestCacheGetCancelledContext(t *testing.T) {
	c, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	f := openFlight(c, "k1")
	ctx, cancel := context.WithCancel(context.Background())
	type answer struct {
		v  *JobResult
		ok bool
	}
	ch := make(chan answer, 1)
	go func() {
		v, ok := c.Get(ctx, "k1")
		ch <- answer{v, ok}
	}()
	waitCoalesced(t, c, 1)
	cancel()
	select {
	case a := <-ch:
		if a.v != nil || a.ok {
			t.Fatalf("cancelled waiter got (%+v, %v), want (nil, false)", a.v, a.ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on the open flight")
	}
	finishFlight(c, "k1", f, nil, false)

	want := &JobResult{Spec: JobSpec{Experiment: ExperimentCell}}
	c.Put("k1", want)
	if v, ok := c.Get(ctx, "k1"); !ok || v != want {
		t.Fatalf("a cancelled Get missed the in-memory tier: (%+v, %v)", v, ok)
	}
}

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
// Stress: Submit storm + /metrics scrapes + cache reads,
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
				p.Cache().Get(context.Background(), hash)
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
