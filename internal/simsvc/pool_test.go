package simsvc

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclicwin/internal/harness"
)

var testSizes = harness.Sizes{Draft: 2000, Dict: 3001}

func testPool(t *testing.T, cfg PoolConfig) *Pool {
	t.Helper()
	if cfg.Cache == nil {
		c, err := NewCache(0, "")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = c
	}
	p := NewPool(cfg)
	t.Cleanup(p.Close)
	return p
}

func setHook(t *testing.T, hook func(JobSpec) (*JobResult, error)) {
	t.Helper()
	executeHook.Store(&hook)
	t.Cleanup(func() { executeHook.Store(nil) })
}

// TestPoolParallelFigureIsByteIdentical is the core tentpole property:
// a figure swept concurrently through the pool renders byte-for-byte
// the same text and CSV as the serial path.
func TestPoolParallelFigureIsByteIdentical(t *testing.T) {
	windows := []int{4, 6, 8}

	serial := harness.RunFig11With(testSizes, windows, harness.RunSerial)
	p := testPool(t, PoolConfig{Workers: 4})
	parallel := harness.RunFig11With(testSizes, windows, p.Runner())

	var sText, pText, sCSV, pCSV bytes.Buffer
	serial.Render(&sText)
	parallel.Render(&pText)
	if err := serial.WriteCSV(&sCSV); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteCSV(&pCSV); err != nil {
		t.Fatal(err)
	}
	if sText.String() != pText.String() {
		t.Errorf("rendered text differs:\nserial:\n%s\nparallel:\n%s", sText.String(), pText.String())
	}
	if sCSV.String() != pCSV.String() {
		t.Errorf("CSV differs:\nserial:\n%s\nparallel:\n%s", sCSV.String(), pCSV.String())
	}
}

func TestPoolCacheHitOnResubmit(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 2})
	spec := JobSpec{Experiment: ExperimentCell, Scheme: "SP", Windows: 6, Behavior: "high-fine",
		Draft: testSizes.Draft, Dict: testSizes.Dict}

	j1, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j1.CacheHit() {
		t.Fatal("first run reported a cache hit")
	}

	j2, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit() {
		t.Fatal("second submission of an identical spec was not a cache hit")
	}
	if j2.ID() == j1.ID() {
		t.Fatal("cache answer reused the original job id")
	}
	if r1.Cell.Cycles != r2.Cell.Cycles || r1.Cell.Misspelled != r2.Cell.Misspelled {
		t.Fatalf("cached result differs: %+v vs %+v", r1.Cell, r2.Cell)
	}
	if s := p.Cache().Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", s)
	}
}

// TestResubmissionAfterAnswerIsCacheHit: a job leaves the coalescing
// map before it answers, so resubmitting its spec once the answer is
// in is a cache hit, never the finished job again. Under -race the
// window used to catch about one resubmission in a thousand.
func TestResubmissionAfterAnswerIsCacheHit(t *testing.T) {
	setHook(t, func(spec JobSpec) (*JobResult, error) { return &JobResult{Spec: spec}, nil })
	p := testPool(t, PoolConfig{Workers: 2})
	for i := 0; i < 2000; i++ {
		spec := distinctCell(i)
		j, err := p.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		again, err := p.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit() {
			t.Fatalf("resubmission %d answered by job %s (the original is %s), not the cache", i, again.ID(), j.ID())
		}
	}
}

// TestPoolRetainsNewestTerminalJobs: past MaxRetainedJobs terminal jobs
// the pool forgets the oldest, whose ids answer 404 naming the remedy,
// keeps the newest, and never forgets a job that is still running.
func TestPoolRetainsNewestTerminalJobs(t *testing.T) {
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock)
	setHook(t, func(spec JobSpec) (*JobResult, error) {
		if spec.MaxCycles == 1 {
			<-release
		}
		return &JobResult{Spec: spec}, nil
	})
	p := testPool(t, PoolConfig{Workers: 2})
	s := NewServer(p)
	retained := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.byID)
	}

	heldSpec := cellSpec()
	heldSpec.MaxCycles = 1
	held, err := p.Submit(heldSpec)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.Submit(cellSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	hits := make([]*Job, MaxRetainedJobs+100)
	for i := range hits {
		if hits[i], err = p.Submit(cellSpec()); err != nil || !hits[i].CacheHit() {
			t.Fatalf("submission %d: err %v, not a cache hit", i, err)
		}
	}
	if n := retained(); n != MaxRetainedJobs+1 {
		t.Fatalf("pool holds %d jobs, want the newest %d terminal ones plus the running one", n, MaxRetainedJobs)
	}
	if rec := serve(t, s, http.MethodGet, "/v1/jobs/"+held.ID(), ""); rec.Code != http.StatusOK ||
		held.Status() != StatusRunning {
		t.Fatalf("running job %s: status %d, %s", held.ID(), rec.Code, held.Status())
	}
	for _, j := range []*Job{cold, hits[0], hits[99]} {
		rec := serve(t, s, http.MethodGet, "/v1/jobs/"+j.ID(), "")
		if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "resubmit the spec") {
			t.Fatalf("forgotten job %s: status %d, body %s", j.ID(), rec.Code, rec.Body)
		}
	}
	for _, j := range []*Job{hits[100], hits[len(hits)-1]} {
		if rec := serve(t, s, http.MethodGet, "/v1/jobs/"+j.ID(), ""); rec.Code != http.StatusOK {
			t.Fatalf("retained job %s: status %d, body %s", j.ID(), rec.Code, rec.Body)
		}
	}

	// Once the held job ends it is the newest terminal job, and the
	// oldest retained one makes room for it.
	unblock()
	if _, err := held.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Drain(context.Background())
	if n := retained(); n != MaxRetainedJobs {
		t.Fatalf("pool holds %d jobs, want %d", n, MaxRetainedJobs)
	}
	if _, ok := p.Job(held.ID()); !ok {
		t.Fatal("the job that ended last was forgotten")
	}
	if _, ok := p.Job(hits[100].ID()); ok {
		t.Fatal("the oldest retained job was kept past the bound")
	}
}

func TestPoolCoalescesInflightDuplicates(t *testing.T) {
	release := make(chan struct{})
	setHook(t, func(JobSpec) (*JobResult, error) {
		<-release
		return &JobResult{}, nil
	})
	p := testPool(t, PoolConfig{Workers: 1})
	spec := JobSpec{Experiment: ExperimentCell, Scheme: "NS", Windows: 4, Behavior: "high-fine"}

	j1, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical in-flight specs did not coalesce onto one job")
	}
	close(release)
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIdenticalSubmissionsShareOneJob submits one spec from
// many goroutines at once, round after round, against a job body that
// cannot finish before every submitter has returned: all of a round's
// submitters must get the same job, so the spec runs once.
func TestConcurrentIdenticalSubmissionsShareOneJob(t *testing.T) {
	const submitters, rounds = 16, 1000
	released := make([]chan struct{}, rounds)
	for i := range released {
		released[i] = make(chan struct{})
	}
	setHook(t, func(spec JobSpec) (*JobResult, error) {
		<-released[spec.MaxCycles-1]
		return &JobResult{}, nil
	})
	p := testPool(t, PoolConfig{Workers: 2})
	duplicated := 0
	for round := range released {
		// A distinct cycle budget per round keeps the cache out of it.
		spec := JobSpec{Experiment: ExperimentCell, Scheme: "NS", Windows: 4, Behavior: "high-fine",
			MaxCycles: uint64(round + 1)}
		jobs := make([]*Job, submitters)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				j, err := p.Submit(spec)
				if err != nil {
					t.Error(err)
				}
				jobs[i] = j
			}()
		}
		close(start)
		wg.Wait()
		close(released[round])
		distinct := map[*Job]bool{}
		for _, j := range jobs {
			if j != nil {
				distinct[j] = true
				<-j.Done()
			}
		}
		if len(distinct) > 1 {
			duplicated++
		}
	}
	if duplicated > 0 {
		t.Errorf("%d of %d rounds queued one spec as more than one job", duplicated, rounds)
	}
}

func TestPoolTimeout(t *testing.T) {
	setHook(t, func(JobSpec) (*JobResult, error) {
		time.Sleep(2 * time.Second)
		return &JobResult{}, nil
	})
	p := testPool(t, PoolConfig{Workers: 1, JobTimeout: 20 * time.Millisecond})
	j, err := p.Submit(validCell())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("want timeout error, got %v", err)
	}
	if j.Status() != StatusFailed {
		t.Fatalf("status = %s, want failed", j.Status())
	}
}

// TestPoolPanicRecovery pins that a wedged (panicking) simulation
// becomes that job's error and nothing else: the worker survives and
// keeps serving.
func TestPoolPanicRecovery(t *testing.T) {
	setHook(t, func(s JobSpec) (*JobResult, error) {
		if s.Scheme == "NS" {
			panic("simulated wedge")
		}
		return &JobResult{Spec: s}, nil
	})
	p := testPool(t, PoolConfig{Workers: 1})

	bad := validCell()
	bad.Scheme = "NS"
	j, err := p.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want panic error, got %v", err)
	}
	if j.Status() != StatusFailed {
		t.Fatalf("status = %s, want failed", j.Status())
	}

	// The same worker must still execute the next job.
	good, err := p.Submit(validCell())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Wait(context.Background()); err != nil {
		t.Fatalf("pool did not survive the panic: %v", err)
	}
}

// TestPoolFailedJobCanBeRetried pins that a failure is not cached and
// does not pin the coalescing map: resubmitting runs the job again.
func TestPoolFailedJobCanBeRetried(t *testing.T) {
	calls := 0
	setHook(t, func(JobSpec) (*JobResult, error) {
		calls++
		if calls == 1 {
			panic("first attempt dies")
		}
		return &JobResult{}, nil
	})
	p := testPool(t, PoolConfig{Workers: 1})

	j1, err := p.Submit(validCell())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(context.Background()); err == nil {
		t.Fatal("first attempt should fail")
	}
	j2, err := p.Submit(validCell())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if j2.CacheHit() {
		t.Fatal("failure must not be served from the cache")
	}
}

func TestPoolCloseCancelsPendingJobs(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	setHook(t, func(JobSpec) (*JobResult, error) {
		<-release
		return &JobResult{}, nil
	})
	p := testPool(t, PoolConfig{Workers: 1})

	specs := []JobSpec{validCell()}
	next := validCell()
	next.Windows = 10
	specs = append(specs, next)

	var jobs []*Job
	for _, s := range specs {
		j, err := p.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	p.Close()
	for _, j := range jobs {
		<-j.Done()
		if st := j.Status(); st != StatusCanceled {
			t.Errorf("job %s status = %s, want canceled", j.ID(), st)
		}
	}
	if _, err := p.Submit(validCell()); err == nil {
		t.Fatal("Submit after Close should fail")
	}
}

func TestPoolDrainFinishesQueuedJobs(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 2})
	var jobs []*Job
	for _, w := range []int{4, 5, 6, 7} {
		s := validCell()
		s.Windows = w
		s.Draft, s.Dict = testSizes.Draft, testSizes.Dict
		j, err := p.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		if j.Status() != StatusDone {
			t.Errorf("job %s status = %s after drain, want done", j.ID(), j.Status())
		}
	}
}

// TestPoolNamedExperimentSharesCells pins the cross-figure cache win:
// fig11 and fig12 sweep the same cells, so running fig12 after fig11
// re-simulates nothing.
func TestPoolNamedExperimentSharesCells(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 2})
	windows := []int{4, 6}
	submit := func(exp string) *JobResult {
		j, err := p.Submit(JobSpec{Experiment: exp, Draft: testSizes.Draft, Dict: testSizes.Dict, WindowList: windows})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	r11 := submit("fig11")
	if r11.Output == "" || r11.CSV == "" {
		t.Fatal("fig11 job produced no output")
	}
	want := harness.RunFig11With(testSizes, windows, harness.RunSerial)
	var buf bytes.Buffer
	want.Render(&buf)
	if r11.Output != buf.String() {
		t.Errorf("fig11 job output differs from direct harness render")
	}
	missesAfter11 := p.Cache().Stats().Misses

	submit("fig12")
	s := p.Cache().Stats()
	// Exactly one new miss: the fig12 job-level spec itself. Every
	// cell it sweeps was already cached by fig11.
	if s.Misses != missesAfter11+1 {
		t.Errorf("fig12 re-simulated %d cells that fig11 already computed", s.Misses-missesAfter11-1)
	}
	// 3 schemes x 3 behaviours x len(windows) cells, every one a hit.
	if wantHits := uint64(9 * len(windows)); s.Hits < wantHits {
		t.Errorf("cache hits = %d, want >= %d", s.Hits, wantHits)
	}
}

func TestPoolMetrics(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 2})
	spec := validCell()
	spec.Draft, spec.Dict = testSizes.Draft, testSizes.Dict
	j, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Submit(spec) // cache hit, already terminal

	m := p.Metrics()
	if m.JobsDone != 2 {
		t.Errorf("jobs done = %d, want 2", m.JobsDone)
	}
	if m.JobsQueued != 0 || m.JobsRunning != 0 {
		t.Errorf("queued/running = %d/%d, want 0/0", m.JobsQueued, m.JobsRunning)
	}
	if m.Workers != 2 {
		t.Errorf("workers = %d, want 2", m.Workers)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.JobsMeasured != 2 {
		t.Errorf("jobs measured = %d, want 2", m.JobsMeasured)
	}
	if m.JobLatencyMaxMS <= 0 {
		t.Errorf("max latency = %v, want > 0", m.JobLatencyMaxMS)
	}
}
