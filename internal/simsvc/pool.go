package simsvc

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cyclicwin/internal/harness"
	"cyclicwin/internal/stats"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued means the job waits for a worker.
	StatusQueued Status = "queued"
	// StatusRunning means a worker is executing the job.
	StatusRunning Status = "running"
	// StatusDone means the job finished and Result is set.
	StatusDone Status = "done"
	// StatusFailed means the job errored, panicked or timed out.
	StatusFailed Status = "failed"
	// StatusCanceled means the pool shut down before the job finished.
	StatusCanceled Status = "canceled"
)

// Job is one submitted simulation. All accessors are safe for
// concurrent use; Done is closed exactly once when the job reaches a
// terminal state.
type Job struct {
	id   string
	hash string
	spec JobSpec
	// cacheHit marks a job answered by the result cache; like the
	// fields above it is set before the job is published.
	cacheHit bool

	mu        sync.Mutex
	status    Status
	result    *JobResult
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time

	// nextRetired links the pool's terminal jobs from oldest to newest
	// (guarded by the pool's mu).
	nextRetired *Job

	done chan struct{}
}

// ID is the pool-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Hash is the content address of the job's spec.
func (j *Job) Hash() string { return j.hash }

// Spec returns the normalized spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the job outcome and error once terminal (nil, nil
// before that).
func (j *Job) Result() (*JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// CacheHit reports whether the job was answered by the result cache.
func (j *Job) CacheHit() bool { return j.cacheHit }

// Wait blocks until the job is terminal or ctx is done, returning the
// job's result or error.
func (j *Job) Wait(ctx context.Context) (*JobResult, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (j *Job) setStarted() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish moves the job to a terminal state; extra transitions (a
// timed-out job's simulation finally completing) are ignored.
func (j *Job) finish(st Status, res *JobResult, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusDone || j.status == StatusFailed || j.status == StatusCanceled {
		return false
	}
	j.status, j.result, j.err = st, res, err
	j.finished = time.Now()
	close(j.done)
	return true
}

// View is the JSON projection of a job for the HTTP API.
type View struct {
	ID        string     `json:"id"`
	Hash      string     `json:"hash"`
	Spec      JobSpec    `json:"spec"`
	Status    Status     `json:"status"`
	CacheHit  bool       `json:"cache_hit"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

// View snapshots the job; the result is included only when withResult
// is set (submission responses stay small, status queries are full).
func (j *Job) View(withResult bool) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:        j.id,
		Hash:      j.hash,
		Spec:      j.spec,
		Status:    j.status,
		CacheHit:  j.cacheHit,
		Submitted: j.submitted,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	// A failed job may still carry a partial result (e.g. the recovered
	// panic stack); expose it alongside the error.
	if withResult && j.result != nil {
		v.Result = j.result
	}
	return v
}

// PoolConfig configures a Pool.
type PoolConfig struct {
	// Workers is the number of concurrent simulations; <= 0 means
	// GOMAXPROCS.
	Workers int
	// JobTimeout bounds one job's execution; 0 means no timeout. A
	// timed-out simulation is abandoned (its goroutine finishes and is
	// discarded) so a wedged job occupies a worker only until the
	// deadline, never forever.
	JobTimeout time.Duration
	// MaxQueue bounds the number of queued-but-not-running jobs; 0
	// means unbounded. A submission beyond the bound is rejected with
	// ErrPoolSaturated instead of growing the queue without limit.
	MaxQueue int
	// Cache, when non-nil, answers repeated specs without re-running
	// and stores every completed result.
	Cache *Cache
}

// Pool executes jobs on a fixed set of workers with a FIFO queue,
// bounded by MaxQueue when set. Identical specs submitted while one is
// in flight coalesce onto the same Job; identical specs submitted after
// completion are answered by the cache.
type Pool struct {
	cfg  PoolConfig
	sims simAgg

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Job
	byID     map[string]*Job
	inflight map[string]*Job // spec hash -> queued/running job
	seq      int
	closed   bool // no new submissions
	stopping bool // workers exit once the queue is empty

	// The terminal jobs still in byID, oldest first, linked through
	// Job.nextRetired; retireLocked bounds them at MaxRetainedJobs.
	oldest, newest *Job
	retired        int

	// acct is the job accounting (guarded by mu); see jobStats.
	acct jobStats

	workerWG sync.WaitGroup // worker goroutines
	jobWG    sync.WaitGroup // enqueued jobs not yet terminal
}

// NewPool starts the workers and returns the pool.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		byID:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < cfg.Workers; i++ {
		p.workerWG.Add(1)
		go p.worker()
	}
	return p
}

// Cache returns the pool's result cache (possibly nil).
func (p *Pool) Cache() *Cache { return p.cfg.Cache }

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.cfg.Workers }

// Metrics returns a point-in-time snapshot of pool and cache counters:
// the job counters are copied in one critical section, and quantiles
// are computed after it.
func (p *Pool) Metrics() MetricsSnapshot {
	s, _ := p.snapshot()
	return s
}

// jobID renders a job sequence number as Sprintf("j%06d", seq) does
// for seq >= 0: a "j" and at least six decimal digits, zero-padded.
func jobID(seq int) string {
	var buf [24]byte
	i := len(buf)
	for n := uint64(seq); n > 0 || len(buf)-i < 6; n /= 10 {
		i--
		buf[i] = byte('0' + n%10)
	}
	i--
	buf[i] = 'j'
	return string(buf[i:])
}

// Submit validates and enqueues a spec. A cached result returns an
// already-terminal job; a spec identical to one still in flight
// returns that in-flight job instead of queueing a duplicate. With
// MaxQueue set, a spec that would queue beyond it is rejected with
// ErrPoolSaturated.
func (p *Pool) Submit(spec JobSpec) (*Job, error) {
	t0 := time.Now()
	spec = spec.Normalize()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	hash := spec.hash()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("simsvc: pool is shut down")
	}
	if j, ok := p.inflight[hash]; ok {
		p.mu.Unlock()
		return j, nil
	}
	p.seq++
	id := jobID(p.seq)
	p.mu.Unlock()

	// Submission-time lookups carry no request deadline: the job, once
	// accepted, outlives its submitter.
	if res, ok := p.cfg.Cache.Get(context.Background(), hash); ok {
		j := &Job{id: id, hash: hash, spec: spec, cacheHit: true, submitted: time.Now(), done: make(chan struct{})}
		j.finish(StatusDone, res, nil)
		elapsed := time.Since(t0)
		p.mu.Lock()
		// The cache answer is a real service event with a real measured
		// latency — recording it as a hard 0 used to drag cache-hot
		// p50/mean to zero and falsify every SLO read on warm traffic.
		p.acct.accepted++
		p.acct.done++
		p.acct.cached++
		p.acct.observe(elapsed)
		p.byID[id] = j
		p.retireLocked(j)
		p.mu.Unlock()
		return j, nil
	}

	j := &Job{id: id, hash: hash, spec: spec, status: StatusQueued, submitted: time.Now(), done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("simsvc: pool is shut down")
	}
	// Another submission of the spec may have queued it while the lock
	// was dropped for the cache lookup.
	if q, ok := p.inflight[hash]; ok {
		p.mu.Unlock()
		return q, nil
	}
	if p.cfg.MaxQueue > 0 && len(p.queue) >= p.cfg.MaxQueue {
		p.acct.shed++
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: queue full (%d jobs waiting)", ErrPoolSaturated, p.cfg.MaxQueue)
	}
	p.byID[id] = j
	p.inflight[hash] = j
	p.queue = append(p.queue, j)
	p.jobWG.Add(1)
	p.acct.accepted++
	p.acct.queued++
	p.cond.Signal()
	p.mu.Unlock()
	return j, nil
}

// Saturated reports whether a bounded queue is currently full — the
// condition under which Submit rejects with ErrPoolSaturated and
// /healthz degrades.
func (p *Pool) Saturated() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfg.MaxQueue > 0 && len(p.queue) >= p.cfg.MaxQueue
}

// Draining reports whether the pool has stopped accepting submissions.
func (p *Pool) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Job looks up a job by its identifier.
func (p *Pool) Job(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.byID[id]
	return j, ok
}

func (p *Pool) worker() {
	defer p.workerWG.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.stopping {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		p.acct.queued--
		p.acct.running++
		p.mu.Unlock()
		p.runJob(j)
	}
}

func (p *Pool) runJob(j *Job) {
	defer p.jobWG.Done()

	if p.ctx.Err() != nil {
		p.finish(j, time.Time{}, StatusCanceled, nil, fmt.Errorf("simsvc: pool shut down before job ran"))
		return
	}

	j.setStarted()
	start := time.Now()

	ctx := p.ctx
	if p.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.JobTimeout)
		defer cancel()
	}

	type outcome struct {
		res *JobResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		// A panicking simulation must not kill the worker, let alone
		// the pool: it becomes this job's error, with the recovered
		// stack preserved in the result for post-mortem debugging.
		defer func() {
			if r := recover(); r != nil {
				p.mu.Lock()
				p.acct.panics++
				p.mu.Unlock()
				res := &JobResult{Spec: j.spec, PanicStack: string(debug.Stack())}
				ch <- outcome{res, fmt.Errorf("simsvc: job panicked: %v", r)}
			}
		}()
		res, err := p.execute(j.spec)
		ch <- outcome{res, err}
	}()

	select {
	case o := <-ch:
		if o.err != nil {
			p.finish(j, start, StatusFailed, o.res, o.err)
		} else {
			p.cfg.Cache.Put(j.hash, o.res)
			p.finish(j, start, StatusDone, o.res, nil)
		}
	case <-ctx.Done():
		if p.ctx.Err() != nil {
			p.finish(j, start, StatusCanceled, nil, fmt.Errorf("simsvc: pool shut down: %w", p.ctx.Err()))
		} else {
			p.finish(j, start, StatusFailed, nil, fmt.Errorf("%w: job exceeded timeout %v", ErrTimeout, p.cfg.JobTimeout))
		}
	}
}

// finish makes a job a worker took off the queue terminal, accounts it
// and retires it; start is when the job began running, or zero for a
// job dropped unrun at shutdown, which records no latency. The job
// leaves the coalescing map in the same critical section, before its
// done channel closes, so a submission made once the job has answered
// consults the cache (or retries a failure) instead of attaching to
// the finished job.
func (p *Pool) finish(j *Job, start time.Time, st Status, res *JobResult, err error) {
	elapsed := time.Since(start)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acct.finished(st)
	if !start.IsZero() {
		p.acct.observe(elapsed)
	}
	if p.inflight[j.hash] == j {
		delete(p.inflight, j.hash)
	}
	if j.finish(st, res, err) {
		p.retireLocked(j)
	}
}

// retireLocked records j as the newest terminal job and forgets the
// oldest past MaxRetainedJobs. Without the bound every request would
// leave its job in byID for good. p.mu must be held.
func (p *Pool) retireLocked(j *Job) {
	if p.newest == nil {
		p.oldest = j
	} else {
		p.newest.nextRetired = j
	}
	p.newest = j
	p.retired++
	for p.retired > MaxRetainedJobs {
		old := p.oldest
		p.oldest, old.nextRetired = old.nextRetired, nil
		delete(p.byID, old.id)
		p.retired--
	}
}

// executeHook, when non-nil, replaces execute — a test seam for
// exercising panic recovery, timeouts and cancellation with
// controllable job bodies instead of real simulations. Atomic because
// an abandoned (timed-out) job goroutine may still be executing when
// a test resets it.
var executeHook atomic.Pointer[func(spec JobSpec) (*JobResult, error)]

// execute runs the spec in the calling goroutine: a single cell, or a
// named experiment whose figure cells run serially through the cache
// (never back through the pool: a worker submitting to its own
// saturated pool would deadlock).
func (p *Pool) execute(spec JobSpec) (*JobResult, error) {
	if h := executeHook.Load(); h != nil {
		return (*h)(spec)
	}
	start := time.Now()
	res := &JobResult{Spec: spec}
	if spec.Experiment == ExperimentCell {
		cr, jt, err := runCell(spec)
		if err != nil {
			return nil, err
		}
		res.Cell = cr
		res.Trace = jt
		c := cr.counters()
		res.Counters = &c
		p.sims.observe(spec.Scheme, &c)
	} else {
		e, ok := LookupExperiment(spec.Experiment)
		if !ok {
			return nil, fmt.Errorf("simsvc: unknown experiment %q", spec.Experiment)
		}
		agg := &stats.Counters{}
		res.Output, res.CSV = e.Run(spec.Sizes(), spec.WindowList, p.countingRunner(agg))
		res.Counters = agg
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	return res, nil
}

// countingRunner is cachedSerialRunner plus an aggregate: every cell's
// counters — fresh or cache-restored — are folded into agg, so a named
// experiment's JobResult carries the same totals regardless of cache
// state.
func (p *Pool) countingRunner(agg *stats.Counters) harness.Runner {
	inner := p.cachedSerialRunner()
	return func(cells []harness.CellSpec) []harness.Result {
		out := inner(cells)
		for i := range out {
			agg.Add(&out[i].Counters)
		}
		return out
	}
}

// cachedSerialRunner executes sweep cells inline but reads and feeds
// the result cache, so overlapping figures (fig11/fig12/fig13 share
// every cell) cost one simulation per distinct cell.
func (p *Pool) cachedSerialRunner() harness.Runner {
	return func(cells []harness.CellSpec) []harness.Result {
		out := make([]harness.Result, len(cells))
		for i, c := range cells {
			spec := CellSpec(c)
			hash := spec.hash()
			if res, ok := p.cfg.Cache.Get(context.Background(), hash); ok && res.Cell != nil {
				out[i] = res.Cell.HarnessResult(spec)
				continue
			}
			r := c.Run()
			p.sims.observe(c.Scheme.String(), &r.Counters)
			p.cfg.Cache.Put(hash, &JobResult{Spec: spec, Cell: CellResultOf(r)})
			out[i] = r
		}
		return out
	}
}

// Runner adapts the pool into a harness.Runner: every cell of a batch
// is submitted up front and executes concurrently across the workers;
// results come back in batch order, so figures built through it are
// byte-identical to serial ones. A cell the pool cannot answer
// (submission error or shutdown mid-batch) falls back to running
// inline, keeping the Runner total.
func (p *Pool) Runner() harness.Runner {
	return func(cells []harness.CellSpec) []harness.Result {
		jobs := make([]*Job, len(cells))
		for i, c := range cells {
			j, err := p.Submit(CellSpec(c))
			if err == nil {
				jobs[i] = j
			}
		}
		out := make([]harness.Result, len(cells))
		for i, j := range jobs {
			if j != nil {
				if res, err := j.Wait(context.Background()); err == nil && res != nil && res.Cell != nil {
					out[i] = res.Cell.HarnessResult(j.Spec())
					continue
				}
			}
			r := cells[i].Run()
			p.sims.observe(cells[i].Scheme.String(), &r.Counters)
			out[i] = r
		}
		return out
	}
}

// Drain stops accepting new jobs and waits until every queued and
// running job is terminal or ctx expires; on expiry the remaining jobs
// are canceled. The workers are stopped either way.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		p.jobWG.Wait()
		close(finished)
	}()

	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
		p.cancel() // abandon running jobs, cancel queued ones
		<-finished
	}
	p.stopWorkers()
	return err
}

// Close cancels everything immediately: queued jobs become canceled,
// running simulations are abandoned, workers exit.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cancel()
	p.stopWorkers()
}

func (p *Pool) stopWorkers() {
	p.mu.Lock()
	if !p.stopping {
		p.stopping = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.workerWG.Wait()
}
