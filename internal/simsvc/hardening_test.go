package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func cellSpec() JobSpec {
	return JobSpec{
		Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine",
		Draft: testSizes.Draft, Dict: testSizes.Dict,
	}
}

// distinctCell returns a cell spec unique per i, so submissions neither
// coalesce nor hit the cache.
func distinctCell(i int) JobSpec {
	s := cellSpec()
	s.Windows = 2 + i%31
	s.MaxCycles = uint64(1_000_000_000 + i)
	return s
}

// TestSubmitSaturation pins the load-shedding contract: a full bounded
// queue rejects with ErrPoolSaturated, the job is NOT enqueued, and
// the pool accepts again once the queue drains.
func TestSubmitSaturation(t *testing.T) {
	release := make(chan struct{})
	setHook(t, func(JobSpec) (*JobResult, error) {
		<-release
		return &JobResult{}, nil
	})
	p := testPool(t, PoolConfig{Workers: 1, MaxQueue: 1})

	// First job occupies the worker; the queue may briefly hold it, so
	// wait until it is actually running before filling the queue.
	j1, err := p.Submit(distinctCell(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; j1.Status() != StatusRunning; i++ {
		if i > 1000 {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Submit(distinctCell(1)); err != nil {
		t.Fatalf("queueing up to MaxQueue failed: %v", err)
	}
	_, err = p.Submit(distinctCell(2))
	if !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("over-queue submission returned %v, want ErrPoolSaturated", err)
	}
	if got := statusCodeOf(err); got != http.StatusTooManyRequests {
		t.Errorf("statusCodeOf(saturated) = %d, want 429", got)
	}
	if !p.Saturated() {
		t.Error("Saturated() = false while the queue is full")
	}
	if m := p.Metrics(); m.JobsShed != 1 {
		t.Errorf("jobs_shed = %d, want 1", m.JobsShed)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := j1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Recovered: the drained pool takes submissions again.
	for i := 0; p.Saturated(); i++ {
		if i > 1000 {
			t.Fatal("pool never unsaturated")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Submit(distinctCell(3)); err != nil {
		t.Fatalf("post-drain submission failed: %v", err)
	}
}

// TestServerSaturationReturns429ThenRecovers is the HTTP half of the
// acceptance criterion: under saturation POST /v1/jobs returns 429
// with Retry-After and /healthz degrades to 503; once drained both
// recover.
func TestServerSaturationReturns429ThenRecovers(t *testing.T) {
	release := make(chan struct{})
	setHook(t, func(JobSpec) (*JobResult, error) {
		<-release
		return &JobResult{}, nil
	})
	p := testPool(t, PoolConfig{Workers: 1, MaxQueue: 1})
	ts := httptest.NewServer(NewServer(p))
	t.Cleanup(ts.Close)

	submit := func(i int) (*http.Response, []byte) {
		body, _ := json.Marshal(map[string]any{"spec": distinctCell(i)})
		return postJSON(t, ts.URL+"/v1/jobs", string(body))
	}
	resp, _ := submit(0)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	j1, _ := p.Job("j000001")
	for i := 0; j1.Status() != StatusRunning; i++ {
		if i > 1000 {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", resp.StatusCode)
	}
	resp, body := submit(2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After")
	}
	var health map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated /healthz = %d, want 503", resp.StatusCode)
	}
	if health["ok"] != false || health["status"] != "saturated" {
		t.Errorf("saturated /healthz body = %v", health)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for p.Saturated() || health["status"] != "ok" {
		if time.Now().After(deadline) {
			t.Fatal("server never recovered from saturation")
		}
		time.Sleep(time.Millisecond)
		getJSON(t, ts.URL+"/healthz", &health)
	}
	if resp, body := submit(3); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit = %d (%s), want 202", resp.StatusCode, body)
	}
}

// TestPanicStackRecorded pins panic containment: the worker survives,
// the job fails with the panic message, the recovered stack is in the
// result, and panics_total counts it.
func TestPanicStackRecorded(t *testing.T) {
	setHook(t, func(JobSpec) (*JobResult, error) {
		panic("deliberate test explosion")
	})
	p := testPool(t, PoolConfig{Workers: 1})
	j, err := p.Submit(distinctCell(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "deliberate test explosion") {
		t.Fatalf("panicking job returned %v, want the panic message", err)
	}
	if res == nil || res.PanicStack == "" {
		t.Fatal("recovered panic stack was not recorded in the result")
	}
	if !strings.Contains(res.PanicStack, "goroutine") {
		t.Errorf("panic stack looks wrong: %q", res.PanicStack[:min(80, len(res.PanicStack))])
	}
	if m := p.Metrics(); m.PanicsTotal != 1 {
		t.Errorf("panics_total = %d, want 1", m.PanicsTotal)
	}
	v := j.View(true)
	if v.Result == nil || v.Result.PanicStack == "" {
		t.Error("job view of a panicked job hides the panic stack")
	}
	// The worker survived: the next job runs.
	setHook(t, func(JobSpec) (*JobResult, error) { return &JobResult{}, nil })
	j2, err := p.Submit(distinctCell(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(ctx); err != nil {
		t.Fatalf("worker did not survive the panic: %v", err)
	}
}

// TestTimeoutSentinel pins the timeout class: errors.Is(ErrTimeout)
// and a 504 mapping.
func TestTimeoutSentinel(t *testing.T) {
	setHook(t, func(JobSpec) (*JobResult, error) {
		time.Sleep(5 * time.Second)
		return &JobResult{}, nil
	})
	p := testPool(t, PoolConfig{Workers: 1, JobTimeout: 20 * time.Millisecond})
	j, err := p.Submit(distinctCell(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = j.Wait(ctx)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("timed-out job returned %v, want ErrTimeout", err)
	}
	if got := statusCodeOf(err); got != http.StatusGatewayTimeout {
		t.Errorf("statusCodeOf(timeout) = %d, want 504", got)
	}
}

// TestGuestFaultSentinel runs a REAL simulation into the cycle-budget
// watchdog: the pool surfaces it as ErrGuestFault (422), and the error
// text carries the kernel's diagnostic.
func TestGuestFaultSentinel(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 1})
	spec := cellSpec()
	spec.MaxCycles = 10_000 // far below what the workload needs
	j, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = j.Wait(ctx)
	if !errors.Is(err, ErrGuestFault) {
		t.Fatalf("budget-exceeded cell returned %v, want ErrGuestFault", err)
	}
	if !strings.Contains(err.Error(), "cycle budget") {
		t.Errorf("error %q does not carry the watchdog diagnostic", err)
	}
	if got := statusCodeOf(err); got != http.StatusUnprocessableEntity {
		t.Errorf("statusCodeOf(guest fault) = %d, want 422", got)
	}
}

// TestPoolBudgetJobLeavesNoGoroutines pins that an over-budget cell —
// every winsimd 422 of this class — releases its simulation: once the
// job has failed, the goroutine count is back to what the idle pool
// had before the submission.
func TestPoolBudgetJobLeavesNoGoroutines(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 1})
	before := runtime.NumGoroutine()
	for _, budget := range []uint64{1_000, 10_000, 100_000} {
		spec := cellSpec()
		spec.MaxCycles = budget
		j, err := p.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err = j.Wait(ctx)
		cancel()
		if !errors.Is(err, ErrGuestFault) {
			t.Fatalf("budget-exceeded cell returned %v, want ErrGuestFault", err)
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Errorf("%d goroutines before the jobs, %d after: the failed simulations outlived their jobs", before, n)
	}
}

// TestServerWaitMapsGuestFaultTo422 checks the blocking submit path
// serves the deterministic-failure class distinctly.
func TestServerWaitMapsGuestFaultTo422(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 1})
	ts := httptest.NewServer(NewServer(p))
	t.Cleanup(ts.Close)
	spec := cellSpec()
	spec.MaxCycles = 10_000
	body, _ := json.Marshal(map[string]any{"spec": spec})
	resp, data := postJSON(t, ts.URL+"/v1/jobs?wait=1", string(body))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("guest-faulting wait submit = %d (%s), want 422", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "cycle budget") {
		t.Errorf("422 body %s does not carry the diagnostic", data)
	}
}

// TestHandlerPanicBecomes500 exercises the recovery middleware: a
// panicking handler serves a JSON 500 instead of hanging up, and the
// server keeps serving afterwards.
func TestHandlerPanicBecomes500(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 1})
	s := NewServer(p)
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler served %d, want 500", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if !strings.Contains(e.Error, "handler bug") {
		t.Errorf("500 body %q does not name the panic", e.Error)
	}
	var health map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Errorf("server unhealthy after a recovered handler panic: %d", resp.StatusCode)
	}
}

// TestRequestTimeout bounds a blocking wait by the server-side request
// deadline: the response is a 504, not a hang.
func TestRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	setHook(t, func(JobSpec) (*JobResult, error) {
		<-release
		return &JobResult{}, nil
	})
	p := testPool(t, PoolConfig{Workers: 1})
	s := NewServer(p)
	s.SetRequestTimeout(50 * time.Millisecond)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(map[string]any{"spec": distinctCell(0)})
	resp, _ := postJSON(t, ts.URL+"/v1/jobs?wait=1", string(body))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-bounded wait = %d, want 504", resp.StatusCode)
	}
}

// TestClientRetriesTransientFailures drives the retrying client
// against a scripted server: two 429s (with Retry-After) then success.
// A deterministic 422 must NOT be retried.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"simsvc: pool saturated"}`)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"jobs":[{"id":"j000001","status":"done"}]}`)
	}))
	t.Cleanup(ts.Close)

	c := NewClient(ts.URL)
	c.BaseBackoff = time.Millisecond
	v, err := c.Submit(context.Background(), cellSpec(), true)
	if err != nil {
		t.Fatalf("client gave up on a recoverable server: %v", err)
	}
	if v.ID != "j000001" || calls.Load() != 3 {
		t.Errorf("got view %+v after %d calls, want j000001 after 3", v, calls.Load())
	}

	calls.Store(0)
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, `{"error":"simsvc: guest fault: cycle budget exceeded"}`)
	}))
	t.Cleanup(ts2.Close)
	c2 := NewClient(ts2.URL)
	c2.BaseBackoff = time.Millisecond
	_, err = c2.Submit(context.Background(), cellSpec(), true)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("deterministic failure returned %v, want a 422 APIError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("client retried a deterministic 422 failure %d times", calls.Load()-1)
	}
}

// TestClientGivesUpAfterMaxRetries bounds the retry loop.
func TestClientGivesUpAfterMaxRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"still broken"}`)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.MaxRetries = 2
	c.BaseBackoff = time.Millisecond
	_, err := c.Submit(context.Background(), cellSpec(), false)
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("got %v, want a giving-up error after 3 attempts", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
}

// TestMaxCyclesInHash pins the cache-correctness rule for the new
// knob: a cell's MaxCycles is part of its identity; a named
// experiment's is normalized away.
func TestMaxCyclesInHash(t *testing.T) {
	a, b := cellSpec(), cellSpec()
	b.MaxCycles = 12345
	if a.Hash() == b.Hash() {
		t.Error("cell MaxCycles does not change the spec hash; stale cache answers possible")
	}
	x, y := JobSpec{Experiment: "fig11"}, JobSpec{Experiment: "fig11", MaxCycles: 12345}
	if x.Hash() != y.Hash() {
		t.Error("MaxCycles leaked into a named experiment's hash despite being cell-only")
	}
}
