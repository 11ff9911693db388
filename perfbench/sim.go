package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cyclicwin/internal/core"
	"cyclicwin/internal/harness"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/simsvc"
	"cyclicwin/internal/stats"
	"cyclicwin/internal/workload"
)

// figureWindows are the golden's window counts.
var figureWindows = []int{4, 6, 8, 16, 32}

// goldenPath is the fig11-15 golden at quick sizes, relative to the root.
const goldenPath = "internal/harness/testdata/figures_quick_golden.txt"

// figure is one of the paper's figures, rendered as the golden file
// renders it.
type figure struct {
	name string
	run  func(harness.Sizes, []int, harness.Runner) harness.Figure
}

var figures = []figure{
	{"fig11", harness.RunFig11With},
	{"fig12", harness.RunFig12With},
	{"fig13", harness.RunFig13With},
	{"fig14", harness.RunFig14With},
	{"fig15", harness.RunFig15With},
}

// Nominal pass lengths on a 2-core host; the pass count of a run is
// fixed from them and --seconds, so every run of a workload takes the
// same number of samples.
const (
	figuresPassSeconds = 4.0
	t3PassSeconds      = 2.3
	setupReps          = 9
)

func passCount(seconds, nominal float64) int { return max(1, int(seconds/nominal)) }

// renderFigures regenerates fig11-15 through run, in the seeded order,
// and returns them in golden order and format.
func renderFigures(order []int, run harness.Runner) []byte {
	sections := make([][]byte, len(figures))
	for _, i := range order {
		var b bytes.Buffer
		fmt.Fprintf(&b, "== %s ==\n", figures[i].name)
		f := figures[i].run(harness.QuickSizes, figureWindows, run)
		f.Render(&b)
		_ = f.WriteCSV(&b) // writes to a bytes.Buffer cannot fail
		sections[i] = b.Bytes()
	}
	return bytes.Join(sections, nil)
}

// poolCell is one cell the pool simulated (not a cache answer).
type poolCell struct {
	spec harness.CellSpec
	res  *simsvc.CellResult
}

// poolPass is one figures pass through a fresh simsvc.Pool and memory
// cache. The cells run through the pool's own Runner, as winsim -exp
// runs them; collect reads the jobs back from the pool once the timed
// region is over.
type poolPass struct {
	pool  *simsvc.Pool
	err   error
	cells map[string]poolCell
	views []simsvc.View
}

func newPoolPass(workers int) *poolPass {
	cache, err := simsvc.NewCache(0, "")
	if err != nil {
		panic(err) // a memory-only cache cannot fail to open
	}
	return &poolPass{
		pool:  simsvc.NewPool(simsvc.PoolConfig{Workers: workers, Cache: cache}),
		cells: map[string]poolCell{},
	}
}

// collect looks up every job of the pass by the pool's sequential ids
// and keeps its stamps and, for the jobs the pool simulated, the cell.
// Pool.Runner answers a failed job by running the cell inline, so only
// the pool's own record shows the failure: a job that is missing or not
// done is an error of the pass.
func (p *poolPass) collect() {
	want := p.pool.Metrics().JobsAccepted
	for i := 1; ; i++ {
		j, ok := p.pool.Job(fmt.Sprintf("j%06d", i))
		if !ok {
			break
		}
		v := j.View(true)
		p.views = append(p.views, v)
		switch {
		case v.Status != simsvc.StatusDone || v.Result == nil || v.Result.Cell == nil:
			p.err = errors.Join(p.err, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error))
		case !v.CacheHit:
			p.cells[v.Hash] = poolCell{harnessCell(v.Spec), v.Result.Cell}
		}
	}
	if n := uint64(len(p.views)); n != want {
		p.err = errors.Join(p.err, fmt.Errorf("found %d of the pool's %d jobs by id", n, want))
	}
}

// stamps returns the run time and the queue wait of every job the pool
// simulated, from the pool's own stamps.
func (p *poolPass) stamps() (run, queue []float64) {
	for _, v := range p.views {
		if v.CacheHit || v.Started == nil || v.Finished == nil {
			continue
		}
		run = append(run, ms(v.Finished.Sub(*v.Started)))
		queue = append(queue, ms(v.Started.Sub(v.Submitted)))
	}
	return run, queue
}

// counters aggregates the distinct simulated cells of the pass.
func (p *poolPass) counters() (stats.Counters, uint64) {
	var agg stats.Counters
	var events uint64
	for _, pc := range p.cells {
		c := pc.res.HarnessResult(simsvc.CellSpec(pc.spec)).Counters
		agg.Add(&c)
		events += simEvents(&c)
	}
	return agg, events
}

// logSpans records the pool's own stamps as spans: the pool call and
// its queue and run children.
func (p *poolPass) logSpans(l *spanLog) {
	for _, v := range p.views {
		if v.Started == nil || v.Finished == nil {
			continue
		}
		id := "job:" + v.ID
		l.add(id, "pool.call", "", v.Submitted, *v.Finished)
		l.add(id, "pool.queue", "pool.call", v.Submitted, *v.Started)
		l.add(id, "pool.run", "pool.call", *v.Started, *v.Finished)
	}
}

// passSample is the resource use of one timed pass.
type passSample struct {
	wall, cpu, allocMB float64
	leaked             int
}

// timePass measures fn from outside: wall time, process CPU, Go heap
// allocated, and the goroutines it left behind once drained.
func timePass(fn func()) passSample {
	g0 := runtime.NumGoroutine()
	before := sampleProc()
	fn()
	after := sampleProc()
	return passSample{
		wall:    after.wall.Sub(before.wall).Seconds(),
		cpu:     (after.cpu - before.cpu).Seconds(),
		allocMB: float64(after.totalAlloc-before.totalAlloc) / (1 << 20),
		leaked:  settledGoroutines(g0) - g0,
	}
}

// setPassMetrics sets the end-to-end pass metrics from the samples.
func setPassMetrics(rep *report, samples []passSample, events uint64, cellMS []float64) {
	var walls, cpus, allocs, rates []float64
	leaked := 0
	for _, s := range samples {
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
		allocs = append(allocs, s.allocMB)
		rates = append(rates, float64(events)/s.wall)
		leaked = max(leaked, s.leaked)
	}
	rep.set("wall_s", median(walls))
	rep.set("cpu_s", median(cpus))
	rep.set("alloc_mb", median(allocs))
	rep.set("sim_events_per_s", median(rates))
	rep.set("goroutines_leaked", float64(leaked))
	rep.set("peak_rss_mb", peakRSSMB())
	rep.notef("timing wall_s per pass: %s", summarize(walls))
	rep.notef("timing cpu_s per pass: %s", summarize(cpus))
	rep.notef("timing cell_ms: %s", summarize(cellMS))
}

// setupTimes are the times a workload took to set up; setup_s is their
// median.
type setupTimes []float64

// time runs the set-up once and records how long it took.
func (st *setupTimes) time(setup func() error) error {
	t := time.Now()
	if err := setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	*st = append(*st, time.Since(t).Seconds())
	return nil
}

// report prints the set-up times and sets setup_s to their median.
func (st setupTimes) report(rep *report) {
	rep.notef("timing setup_s: %s", summarize(st))
	rep.set("setup_s", median(st))
}

// setUp times a simulation workload's set-up before its first pass:
// setupReps times, less one for each later pass, before which the pass
// loop times it again. The set-up times then sample the whole run, as
// the passes do, and not only its first second: a shared host's speed
// drifts by a quarter from one minute to the next.
func setUp(passes int, setup func() error) (setupTimes, error) {
	var st setupTimes
	for i := 0; i < max(1, setupReps-passes+1); i++ {
		if err := st.time(setup); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// warmCells are mid-sized figures cells, one per scheme, run during
// set-up: they fill the harness's corpus cache so the first timed pass
// does not pay for it. One cell's time varies by a third between runs;
// the sum of three varies less.
func warmCells() []harness.CellSpec {
	var cells []harness.CellSpec
	for _, sc := range core.Schemes {
		cells = append(cells, harness.CellSpec{
			Scheme: sc, Windows: 8, Policy: sched.FIFO,
			Behavior: harness.Behaviors[2], Sizes: harness.QuickSizes,
		})
	}
	return cells
}

func runFigures(o options) (*report, error) {
	rep := newReport()
	var golden []byte
	passes := passCount(o.seconds, figuresPassSeconds)
	setup := func() error {
		g, err := os.ReadFile(filepath.Join(o.root, goldenPath))
		if err != nil {
			return err
		}
		golden = g
		generateCorpus(harness.QuickSizes)
		pp := newPoolPass(0)
		pp.pool.Runner()(warmCells())
		pp.pool.Close()
		pp.collect()
		return pp.err
	}
	st, err := setUp(passes, setup)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(o.seed)).Perm(len(figures))
	rep.notef("figures order %v", order)

	// pass runs fig11-15 once through a fresh pool and checks the bytes.
	pass := func() (*poolPass, passSample) {
		var pp *poolPass
		var out []byte
		s := timePass(func() {
			pp = newPoolPass(0)
			out = renderFigures(order, pp.pool.Runner())
			pp.pool.Close()
		})
		pp.collect()
		ok := pp.err == nil && bytes.Equal(out, golden)
		if pp.err != nil {
			rep.notef("pass error: %v", pp.err)
		} else if !ok {
			rep.notef("pass output differs from %s at byte %d", goldenPath, firstDiff(out, golden))
		}
		rep.op(ok)
		return pp, s
	}

	if !o.trace {
		var samples []passSample
		var runMS, queueMS []float64
		var last *poolPass
		for i := 0; i < passes; i++ {
			if i > 0 {
				if err := st.time(setup); err != nil {
					return nil, err
				}
			}
			pp, s := pass()
			samples = append(samples, s)
			run, queue := pp.stamps()
			runMS = append(runMS, run...)
			queueMS = append(queueMS, queue...)
			last = pp
		}
		agg, events := last.counters()
		st.report(rep)
		setPassMetrics(rep, samples, events, runMS)
		rep.set("pool.run.ms", median(runMS))
		rep.set("pool.queue_wait.ms", median(queueMS))
		setCacheMetrics(rep, last.pool.Cache().Stats())
		layerCounts(rep, &agg, len(last.cells))
		return rep, nil
	}

	// Traced run: one untraced pass, then the same cells rebuilt from
	// the public constructors with the timing decorator, on as many
	// workers as the pool has, with the same in-pass result reuse.
	st.report(rep)
	spans := newSpanLog()
	pp, untraced := pass()
	pp.logSpans(spans)
	tr := newTracedRunner(runtime.GOMAXPROCS(0), spans)
	var out []byte
	traced := timePass(func() { out = renderFigures(order, tr.run) })
	ok := tr.err == nil && bytes.Equal(out, golden)
	for key, pc := range pp.cells {
		if !tr.matches(key, pc.res) {
			ok = false
			rep.notef("traced cell %s differs from the untraced pass", cellLabel(pc.spec))
		}
	}
	if tr.err != nil {
		rep.notef("traced pass error: %v", tr.err)
	}
	rep.op(ok)
	run, queue := pp.stamps()
	rep.set("pool.run.ms", median(run))
	rep.set("pool.queue_wait.ms", median(queue))
	setCacheMetrics(rep, pp.pool.Cache().Stats())
	agg, _ := pp.counters()
	return finishTraced(o, rep, spans, tr, &agg, len(pp.cells), uint64(len(pp.views)), untraced, traced, runtime.GOMAXPROCS(0))
}

// finishTraced sets a simulation workload's traced per-layer metrics.
func finishTraced(o options, rep *report, spans *spanLog, tr *tracedRunner, agg *stats.Counters, cells int,
	cacheGets uint64, untraced, traced passSample, workers int) (*report, error) {
	layerCounts(rep, agg, cells)
	rep.set("runtime.goroutines.end", float64(settledGoroutines(1)))
	rep.set("runtime.heap_inuse_mb.end", heapInuseMB())
	if err := reportTraced(o, rep, spans, tr, agg, cacheGets, untraced.wall, traced.wall, workers); err != nil {
		return nil, err
	}
	return rep, nil
}

// reportTraced sets the per-layer metrics every traced run shares (the
// isolated layer costs, the decorator's per-call costs and self times,
// the tracing overhead and the ledger) and writes the spans.
func reportTraced(o options, rep *report, spans *spanLog, tr *tracedRunner, agg *stats.Counters,
	cacheGets uint64, untracedWall, tracedWall float64, workers int) error {
	lc, err := measureLayers()
	if err != nil {
		return fmt.Errorf("isolated layer timings: %w", err)
	}
	lc.report(rep)
	tr.totals.report(rep)
	rep.set("trace.overhead_pct", 100*(tracedWall-untracedWall)/untracedWall)
	rep.notef("trace untraced_wall_s=%.4f traced_wall_s=%.4f", untracedWall, tracedWall)
	ledger(rep, agg, tr.totals.streamB, cacheGets, workers, untracedWall, lc)
	path, err := spans.write(o.out, o.workload, o.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.notef("spans written to %s", path)
	return nil
}

func setCacheMetrics(rep *report, s simsvc.CacheStats) {
	rep.set("cache.hits.count", float64(s.Hits))
	rep.set("cache.misses.count", float64(s.Misses))
	rep.set("cache.coalesced.count", float64(s.Coalesced))
	rep.set("cache.hit_ratio", s.HitRatio())
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// tracedRunner is a harness.Runner that executes each distinct cell of
// a batch once, traced, on a fixed set of workers, and answers repeats
// from its own results, as the pool's cache does.
type tracedRunner struct {
	workers int
	spans   *spanLog
	results map[string]harness.Result
	totals  layerTotals
	err     error
	seq     int
}

func newTracedRunner(workers int, spans *spanLog) *tracedRunner {
	return &tracedRunner{workers: workers, spans: spans, results: map[string]harness.Result{}}
}

func (t *tracedRunner) run(cells []harness.CellSpec) []harness.Result {
	keys := make([]string, len(cells))
	var todo []int
	queued := map[string]bool{}
	for i, c := range cells {
		keys[i] = cellKey(c)
		if _, done := t.results[keys[i]]; done || queued[keys[i]] {
			continue
		}
		queued[keys[i]] = true
		todo = append(todo, i)
	}
	results := make([]harness.Result, len(cells))
	traces := make([]*cellTrace, len(cells))
	errs := make([]error, len(cells))
	runOne := func(i int) {
		traces[i] = &cellTrace{}
		results[i], errs[i] = tracedCell(cells[i], traces[i])
	}
	if t.workers <= 1 {
		// One worker: run in the calling goroutine, as the serial
		// untraced pass does.
		for _, i := range todo {
			runOne(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < min(t.workers, len(todo)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := int(next.Add(1)) - 1; n < len(todo); n = int(next.Add(1)) - 1 {
					runOne(todo[n])
				}
			}()
		}
		wg.Wait()
	}
	for _, i := range todo {
		if errs[i] != nil {
			t.err = errors.Join(t.err, fmt.Errorf("cell %s: %w", cellLabel(cells[i]), errs[i]))
			continue
		}
		t.seq++
		traces[i].id = fmt.Sprintf("cell:%d", t.seq)
		t.spans.addCell(traces[i])
		t.totals.add(traces[i])
		t.results[keys[i]] = results[i]
	}
	out := make([]harness.Result, len(cells))
	for i := range cells {
		out[i] = t.results[keys[i]]
	}
	return out
}

// matches reports whether the traced result of the cell equals want.
func (t *tracedRunner) matches(key string, want *simsvc.CellResult) bool {
	got, ok := t.results[key]
	return ok && bytes.Equal(resultBytes(got), cellResultBytes(want))
}

// t3Cells lists the t3-scale workload: the t3threads figure (8..256
// threads, 32 windows) and the t3migration figure (128 threads, 4
// preemptive cores), built by the harness's own figure functions.
func t3Cells() []harness.CellSpec {
	var cells []harness.CellSpec
	collect := func(cs []harness.CellSpec) []harness.Result {
		cells = append(cells, cs...)
		return make([]harness.Result, len(cs))
	}
	harness.RunCrossoverThreadsWith(harness.QuickSizes, 32, harness.ThreadCounts, collect)
	harness.RunCrossoverMigrationWith(harness.QuickSizes, 32, 128, harness.MigrationRates, collect)
	return cells
}

// runT3Cell runs one cell in the calling goroutine, as a library caller
// or winsim -parallel=false does. harness.RunT3 panics on a checksum
// mismatch; that becomes the cell's error.
func runT3Cell(c harness.CellSpec) (r harness.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	return c.Run(), nil
}

// checkT3 verifies a cell's chain checksum and its pinned cycle count.
func checkT3(c harness.CellSpec, r harness.Result) error {
	items := t3Items(c.Sizes)
	if want := workload.ChainExpected(c.Threads, t3Depth, items); uint32(r.Misspelled) != want {
		return fmt.Errorf("checksum %#x, want %#x", r.Misspelled, want)
	}
	want, ok := t3PinnedCycles[cellLabel(c)]
	if !ok {
		return errors.New("no pinned cycle count")
	}
	if r.Cycles != want {
		return fmt.Errorf("%d cycles, pinned %d", r.Cycles, want)
	}
	return nil
}

func runT3Scale(o options) (*report, error) {
	rep := newReport()
	var cells []harness.CellSpec
	passes := passCount(o.seconds, t3PassSeconds)
	setup := func() error {
		cells = t3Cells()
		for _, c := range cells {
			if _, ok := t3PinnedCycles[cellLabel(c)]; !ok {
				return fmt.Errorf("cell %s has no pinned cycle count", cellLabel(c))
			}
		}
		// Warm up on the 64-thread cell of every scheme. One such cell
		// is mostly thread handoffs, whose time varies by a third from
		// one run to the next; the sum of three varies less.
		for _, sc := range core.Schemes {
			warm := harness.CellSpec{Scheme: sc, Windows: 32, Policy: sched.FIFO, Sizes: harness.QuickSizes, Threads: 64}
			r, err := runT3Cell(warm)
			if err == nil {
				err = checkT3(warm, r)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	st, err := setUp(passes, setup)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(o.seed)).Perm(len(cells))

	// pass runs every cell once, serially, in the seeded order.
	pass := func(run func(harness.CellSpec) (harness.Result, error)) (passSample, []harness.Result, []float64) {
		results := make([]harness.Result, len(cells))
		cellMS := make([]float64, 0, len(cells))
		s := timePass(func() {
			for _, i := range order {
				t := time.Now()
				r, err := run(cells[i])
				cellMS = append(cellMS, ms(time.Since(t)))
				if err == nil {
					err = checkT3(cells[i], r)
				}
				if err != nil {
					rep.notef("cell %s: %v", cellLabel(cells[i]), err)
				}
				rep.op(err == nil)
				results[i] = r
			}
		})
		return s, results, cellMS
	}
	aggregate := func(results []harness.Result) (stats.Counters, uint64) {
		var agg stats.Counters
		var events uint64
		for i := range results {
			agg.Add(&results[i].Counters)
			events += simEvents(&results[i].Counters)
		}
		return agg, events
	}

	if !o.trace {
		var samples []passSample
		var cellMS []float64
		var results []harness.Result
		for i := 0; i < passes; i++ {
			if i > 0 {
				if err := st.time(setup); err != nil {
					return nil, err
				}
			}
			s, rs, c := pass(runT3Cell)
			samples = append(samples, s)
			cellMS = append(cellMS, c...)
			results = rs
		}
		agg, events := aggregate(results)
		st.report(rep)
		setPassMetrics(rep, samples, events, cellMS)
		layerCounts(rep, &agg, len(cells))
		return rep, nil
	}

	st.report(rep)
	spans := newSpanLog()
	untraced, want, _ := pass(runT3Cell)
	tr := newTracedRunner(1, spans)
	traced, got, _ := pass(func(c harness.CellSpec) (harness.Result, error) {
		return tr.run([]harness.CellSpec{c})[0], tr.err
	})
	for i, c := range cells {
		ok := bytes.Equal(resultBytes(got[i]), resultBytes(want[i]))
		if !ok {
			rep.notef("traced cell %s differs from the untraced pass", cellLabel(c))
		}
		rep.op(ok)
	}
	agg, _ := aggregate(want)
	return finishTraced(o, rep, spans, tr, &agg, len(cells), 0, untraced, traced, 1)
}
