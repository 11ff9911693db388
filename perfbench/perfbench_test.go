package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"cyclicwin/internal/core"
	"cyclicwin/internal/cycles"
	"cyclicwin/internal/harness"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/simsvc"
	"cyclicwin/internal/workload"
)

var smallSizes = harness.Sizes{Draft: 2000, Dict: 3001}

// migratingCell is a T3 cell whose threads move between four cores.
var migratingCell = harness.CellSpec{
	Scheme: core.SchemeSP, Windows: 8, Policy: sched.FIFO, Sizes: smallSizes,
	Threads: 16, Cores: 4, Quantum: 300, MigrateEvery: 2,
}

// TestTracedCellsMatchHarness pins the decorator's transparency: a cell
// rebuilt from the public constructors with every manager decorated
// computes the harness's cycles, counters, switch-cost distribution,
// suspensions and output, on all three schemes and on a migrating T3
// cell.
func TestTracedCellsMatchHarness(t *testing.T) {
	var cells []harness.CellSpec
	for _, s := range core.Schemes {
		for _, b := range []harness.Behavior{harness.Behaviors[0], harness.Behaviors[4]} {
			cells = append(cells, harness.CellSpec{Scheme: s, Windows: 6, Policy: sched.WorkingSet, Behavior: b, Sizes: smallSizes})
		}
		c := migratingCell
		c.Scheme = s
		cells = append(cells, c)
	}
	for _, c := range cells {
		want := c.Run()
		var tr cellTrace
		got, err := tracedCell(c, &tr)
		if err != nil {
			t.Fatalf("%s: %v", cellLabel(c), err)
		}
		if g, w := resultBytes(got), resultBytes(want); string(g) != string(w) {
			t.Errorf("%s: traced result differs\n got  %s\n want %s", cellLabel(c), g, w)
		}
		if tr.calls[mSave].count != want.Counters.Saves || tr.calls[mRestore].count != want.Counters.Restores {
			t.Errorf("%s: decorator saw %d saves and %d restores, counters say %d and %d", cellLabel(c),
				tr.calls[mSave].count, tr.calls[mRestore].count, want.Counters.Saves, want.Counters.Restores)
		}
		if c.MigrateEvery > 0 && tr.calls[mEvict].count == 0 {
			t.Errorf("%s: no eviction went through the decorator", cellLabel(c))
		}
	}

	// The same cells on four workers at once, as the traced figures
	// pass runs them.
	tr := newTracedRunner(4, newSpanLog())
	got := tr.run(cells)
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	for i, c := range cells {
		if string(resultBytes(got[i])) != string(resultBytes(c.Run())) {
			t.Errorf("%s: concurrent traced result differs", cellLabel(c))
		}
	}
}

// TestDecoratorWithoutMigratorChangesMigratingCells shows why decorate
// forwards core.Migrator: a wrapper that hides it makes the kernel skip
// every eviction, and the migrating cell computes something else or
// fails outright (a thread's windows stay resident on its old core).
func TestDecoratorWithoutMigratorChangesMigratingCells(t *testing.T) {
	c := migratingCell
	want := c.Run()
	cyc := new(cycles.Counter)
	cfg := core.Config{Windows: c.Windows, Memory: mem.New(), Counter: cyc, Stacks: mem.NewStackAllocator(0xfff0000, 1<<16)}
	var calls [numMethods]callStat
	mgrs := make([]core.Manager, c.Cores)
	for i := range mgrs {
		mgrs[i] = &timedManager{inner: core.New(c.Scheme, cfg), calls: &calls}
	}
	k := sched.NewMultiKernel(mgrs, c.Policy)
	k.SetQuantum(c.Quantum)
	k.SetMigrateEvery(c.MigrateEvery)
	workload.Chain(k, c.Threads, t3Depth, t3Items(c.Sizes))
	if err := k.Run(); err != nil {
		return
	}
	got := k.TotalCounters()
	if want.Counters.Migrations == 0 || got.Migrations != 0 || cyc.Total() == want.Cycles {
		t.Fatalf("hiding Migrator left the cell unchanged: %d migrations and %d cycles, harness %d and %d",
			got.Migrations, cyc.Total(), want.Counters.Migrations, want.Cycles)
	}
}

// TestFlippedGoldenByteIsAFailedOp runs one figures pass against a
// golden file with one byte flipped: the pass must count as failed.
func TestFlippedGoldenByteIsAFailedOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figures pass")
	}
	golden, err := os.ReadFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	golden[len(golden)/2] ^= 0x01
	root := t.TempDir()
	path := filepath.Join(root, goldenPath)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := runFigures(options{workload: "figures", seed: 1, seconds: 1, root: root})
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted != 1 || rep.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want the one pass failed", rep.attempted, rep.failed)
	}
}

// TestCollectReadsThePoolsJobs runs two batches through a pool's own
// Runner, the second a repeat, and reads the jobs back: three jobs, two
// of them simulated.
func TestCollectReadsThePoolsJobs(t *testing.T) {
	a := harness.CellSpec{Scheme: core.SchemeSP, Windows: 6, Policy: sched.FIFO, Behavior: harness.Behaviors[0], Sizes: smallSizes}
	b := a
	b.Windows = 8
	pp := newPoolPass(2)
	run := pp.pool.Runner()
	run([]harness.CellSpec{a, b})
	run([]harness.CellSpec{a})
	pp.pool.Close()
	pp.collect()
	if pp.err != nil || len(pp.views) != 3 || len(pp.cells) != 2 {
		t.Fatalf("collect: %d jobs, %d simulated, err %v; want 3, 2, nil", len(pp.views), len(pp.cells), pp.err)
	}
}

// TestPoolFailureIsSeen times every pool job out. Pool.Runner then
// answers each cell inline, so the output is still right, and only the
// pool's own record shows the failure: collect must report it.
func TestPoolFailureIsSeen(t *testing.T) {
	c := harness.CellSpec{Scheme: core.SchemeNS, Windows: 6, Policy: sched.FIFO, Behavior: harness.Behaviors[0], Sizes: smallSizes}
	cache, err := simsvc.NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	pp := &poolPass{pool: simsvc.NewPool(simsvc.PoolConfig{JobTimeout: time.Nanosecond, Cache: cache}), cells: map[string]poolCell{}}
	got := pp.pool.Runner()([]harness.CellSpec{c})
	pp.pool.Close()
	pp.collect()
	if string(resultBytes(got[0])) != string(resultBytes(c.Run())) {
		t.Fatal("the Runner's inline answer differs from the harness")
	}
	if pp.err == nil {
		t.Fatal("a timed-out pool job went unnoticed")
	}
}

// fakePipe is a pipeConn whose replies are ready as soon as they are
// asked for. It records how many requests each connection had written
// ahead, and which requests it saw.
type fakePipe struct {
	queue   chan int // requests written and not yet read, in order
	most    *atomic.Int32
	sent    []atomic.Int32
	pending atomic.Int32
}

func (p *fakePipe) write(r *request) {
	p.sent[r.hot].Add(1)
	now := p.pending.Add(1)
	for m := p.most.Load(); now > m && !p.most.CompareAndSwap(m, now); m = p.most.Load() {
	}
	p.queue <- r.hot
}

func (p *fakePipe) flush() error { return nil }

func (p *fakePipe) read() ([]byte, int, error) {
	<-p.queue
	time.Sleep(100 * time.Microsecond)
	p.pending.Add(-1)
	return nil, 200, nil
}

func (p *fakePipe) close() {}

// TestDrainKeepsDepthPerConnection sends a batch over three connections
// four deep: every request goes out once, no connection ever has more
// than four replies outstanding, and only three connections are opened.
func TestDrainKeepsDepthPerConnection(t *testing.T) {
	const n, conns, depth = 200, 3, 4
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i].hot = i // names the request in write
	}
	var most, dialed atomic.Int32
	sent := make([]atomic.Int32, n)
	dial := func() (pipeConn, error) {
		dialed.Add(1)
		return &fakePipe{queue: make(chan int, n), most: &most, sent: sent}, nil
	}
	check := func(*request, []byte, int, error) outcome { return outcome{ok: true} }
	outs, _ := drainBatch(reqs, conns, depth, dial, check)
	for i := range reqs {
		if sent[i].Load() != 1 || !outs[i].ok {
			t.Fatalf("request %d sent %d times", i, sent[i].Load())
		}
	}
	if most.Load() > depth || dialed.Load() != conns {
		t.Fatalf("%d replies outstanding on one connection over %d connections; want at most %d over %d",
			most.Load(), dialed.Load(), depth, conns)
	}
	if most.Load() < 2 {
		t.Fatalf("at most %d reply outstanding: the drain does not write ahead", most.Load())
	}
}

// TestLatencyCountsFromDueTime stalls the generator for 200ms before
// one send: every request due during the stall goes out late, and its
// latency counts from when it was due, not from when it was sent.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const n, gap, stallAt, stall = 30, 10 * time.Millisecond, 5, 200 * time.Millisecond
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i].due = time.Duration(i) * gap
	}
	send := func(*request) outcome { return outcome{ok: true} }
	outs, lag, _ := drive(reqs, send, func(i int) {
		if i == stallAt {
			time.Sleep(stall)
		}
	})
	// The stall starts once request stallAt-1 is sent, at its due time.
	stallEnd := reqs[stallAt-1].due + stall
	for i, o := range outs {
		if !o.ok {
			t.Fatalf("request %d failed: %s", i, o.reason)
		}
		if i >= stallAt && reqs[i].due < stallEnd {
			if min := stallEnd - reqs[i].due; o.latency() < min {
				t.Errorf("request %d due %v: latency %v, want at least %v", i, reqs[i].due, o.latency(), min)
			}
			if lag[i] < ms(stallEnd-reqs[i].due) {
				t.Errorf("request %d: generator lag %.1fms hides the stall", i, lag[i])
			}
		}
		if i < stallAt && o.latency() > stall/2 {
			t.Errorf("request %d before the stall: latency %v", i, o.latency())
		}
	}
}

// TestScheduleIsSeeded pins the serve schedule to its seed and its mix
// to the fixed shares.
func TestScheduleIsSeeded(t *testing.T) {
	a := newSpecSource(7).schedule(heavyRPS, 2*time.Second)
	b := newSpecSource(7).schedule(heavyRPS, 2*time.Second)
	c := newSpecSource(8).schedule(heavyRPS, 2*time.Second)
	if len(a) != int(2*heavyRPS) || len(a) != len(c) {
		t.Fatalf("schedule lengths %d and %d, want %d", len(a), len(c), int(2*heavyRPS))
	}
	same := func(x, y []request) bool {
		return slices.EqualFunc(x, y, func(p, q request) bool { return p.due == q.due && string(p.body) == string(q.body) })
	}
	if !same(a, b) || same(a, c) {
		t.Fatal("the schedule is not a function of the seed")
	}
	count := map[int]int{}
	seen := map[string]bool{}
	for _, r := range a {
		count[r.kind]++
		if r.kind != kindHot {
			if seen[string(r.body)] {
				t.Fatalf("%s spec repeated: %s", kindNames[r.kind], r.body)
			}
			seen[string(r.body)] = true
		}
	}
	for kind, share := range map[int]float64{kindCold: shareCold, kindTrace: shareTrace, kindOver: shareOver} {
		if want := int(share*float64(len(a)) + 0.5); count[kind] != want {
			t.Errorf("%d %s requests, want %d", count[kind], kindNames[kind], want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's
// metric sets in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(set string, got []struct{ Name, Unit string }, want []string) {
		var names []string
		for _, m := range got {
			names = append(names, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s %s: unit %q, program says %q", set, m.Name, m.Unit, units[m.Name])
			}
		}
		if !slices.Equal(names, want) {
			t.Errorf("%s lists %v, program reports %v", set, names, want)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
}
