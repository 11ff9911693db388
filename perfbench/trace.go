package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cyclicwin/internal/core"
	"cyclicwin/internal/cycles"
	"cyclicwin/internal/stats"
)

// The traced run records spans from the benchmark's own code, around
// calls into each layer: the cell or request root, Kernel.Run, every
// timed window-manager call, and every pool or HTTP call. A figures
// pass makes millions of manager calls, so those spans are folded per
// (cell, method) into one record holding the call count and the summed
// duration; every other span is kept individually. All spans stay in
// memory and are written out when the run ends.

// Manager methods the decorator times. Reg, SetReg and the accessors
// are forwarded untimed: they are field reads, and timing them would
// cost more than they do.
const (
	mSwitch = iota
	mSwitchFlush
	mSave
	mRestore
	mExit
	mEvict
	mResident
	numMethods
)

var methodNames = [numMethods]string{"Switch", "SwitchFlush", "Save", "Restore", "Exit", "Evict", "Resident"}

// callStat aggregates the calls of one manager method within one cell.
type callStat struct {
	count uint64
	ns    int64
}

func (c *callStat) add(start time.Duration) {
	c.count++
	c.ns += int64(now() - start)
}

// epoch anchors now, which reads only the monotonic clock: one clock
// read per call instead of the wall and monotonic pair time.Now takes.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// clockNS is the duration an empty timed call measures: the share of
// the clock reads that lands inside every measured interval. Per-call
// costs are reported with it subtracted.
func clockNS() float64 {
	const n = 100000
	xs := make([]float64, isolatedReps)
	for i := range xs {
		var c callStat
		for j := 0; j < n; j++ {
			c.add(now())
		}
		xs[i] = float64(c.ns) / n
	}
	return median(xs)
}

// timedManager decorates a core.Manager, timing each call into it. One
// kernel runs one thread at a time, so a cell's calls never race.
type timedManager struct {
	inner core.Manager
	calls *[numMethods]callStat
}

// timedMigrator is the decorator for managers that implement
// core.Migrator. The kernel evicts a migrating thread only through
// that interface, so dropping it would change every migrating cell.
type timedMigrator struct {
	*timedManager
	mig core.Migrator
}

// decorate wraps m so that its calls are timed into calls.
func decorate(m core.Manager, calls *[numMethods]callStat) core.Manager {
	d := &timedManager{inner: m, calls: calls}
	if mig, ok := m.(core.Migrator); ok {
		return timedMigrator{d, mig}
	}
	return d
}

func (m *timedManager) Scheme() core.Scheme { return m.inner.Scheme() }
func (m *timedManager) NewThread(id int, name string) *core.Thread {
	return m.inner.NewThread(id, name)
}
func (m *timedManager) Running() *core.Thread     { return m.inner.Running() }
func (m *timedManager) Reg(r int) uint32          { return m.inner.Reg(r) }
func (m *timedManager) SetReg(r int, v uint32)    { m.inner.SetReg(r, v) }
func (m *timedManager) Counters() *stats.Counters { return m.inner.Counters() }
func (m *timedManager) Cycles() *cycles.Counter   { return m.inner.Cycles() }

func (m *timedManager) Switch(t *core.Thread) {
	s := now()
	m.inner.Switch(t)
	m.calls[mSwitch].add(s)
}

func (m *timedManager) SwitchFlush(t *core.Thread) {
	s := now()
	m.inner.SwitchFlush(t)
	m.calls[mSwitchFlush].add(s)
}

func (m *timedManager) Save() {
	s := now()
	m.inner.Save()
	m.calls[mSave].add(s)
}

func (m *timedManager) Restore() {
	s := now()
	m.inner.Restore()
	m.calls[mRestore].add(s)
}

func (m *timedManager) Exit() {
	s := now()
	m.inner.Exit()
	m.calls[mExit].add(s)
}

func (m *timedManager) Resident(t *core.Thread) bool {
	s := now()
	r := m.inner.Resident(t)
	m.calls[mResident].add(s)
	return r
}

func (m timedMigrator) Evict(t *core.Thread) int {
	s := now()
	n := m.mig.Evict(t)
	m.calls[mEvict].add(s)
	return n
}

// cellTrace is the span set of one traced cell.
type cellTrace struct {
	id         string
	root, run  [2]time.Time // start, end
	calls      [numMethods]callStat
	streamByte uint64 // bytes that crossed the cell's streams
}

// spanRecord is one written span. A folded record of manager calls
// spans its Kernel.Run and carries the call count and their summed
// duration.
type spanRecord struct {
	ID      string  `json:"id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Count   uint64  `json:"count,omitempty"`
	TotalUS float64 `json:"total_us,omitempty"`
}

// spanLog keeps spans in memory until the run ends. Times are written
// in microseconds from the log's epoch; spans from before it are negative.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	recs  []spanRecord
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) us(t time.Time) float64 { return float64(t.Sub(l.epoch)) / 1e3 }

// add records one span from start to end.
func (l *spanLog) add(id, name, parent string, start, end time.Time) {
	l.mu.Lock()
	l.recs = append(l.recs, spanRecord{ID: id, Name: name, Parent: parent, StartUS: l.us(start), EndUS: l.us(end)})
	l.mu.Unlock()
}

// addCell records a traced cell: its root, its Kernel.Run and one
// folded record per manager method it called.
func (l *spanLog) addCell(c *cellTrace) {
	l.add(c.id, "cell", "", c.root[0], c.root[1])
	l.add(c.id, "Kernel.Run", "cell", c.run[0], c.run[1])
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, s := range c.calls {
		if s.count > 0 {
			l.recs = append(l.recs, spanRecord{ID: c.id, Name: "core." + methodNames[i], Parent: "Kernel.Run",
				StartUS: l.us(c.run[0]), EndUS: l.us(c.run[1]), Count: s.count, TotalUS: float64(s.ns) / 1e3})
		}
	}
}

// write stores the spans as one JSON document and returns its path.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	l.mu.Lock()
	data, err := json.Marshal(l.recs)
	l.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// layerTotals sums the traced cells' spans per layer.
type layerTotals struct {
	calls   [numMethods]callStat
	runNS   int64 // Kernel.Run spans
	cellMS  []float64
	streamB uint64
}

func (t *layerTotals) add(c *cellTrace) {
	for i, s := range c.calls {
		t.calls[i].count += s.count
		t.calls[i].ns += s.ns
	}
	t.runNS += int64(c.run[1].Sub(c.run[0]))
	t.cellMS = append(t.cellMS, ms(c.root[1].Sub(c.root[0])))
	t.streamB += c.streamByte
}

// perCall is the mean cost of the calls net of the clock reads.
func perCall(s callStat, clock float64) float64 {
	if s.count == 0 {
		return 0
	}
	return max(0, float64(s.ns)/float64(s.count)-clock)
}

// report sets the traced per-layer metrics: per-call manager costs,
// the manager's self time, the kernel's self time (Kernel.Run minus its
// manager children) and the cell span median.
//
// Each timed call carries about one clock read inside its interval and
// one outside it; both are taken off, so the manager's self time and
// the kernel's exclude the decorator's own cost.
func (t *layerTotals) report(rep *report) {
	clock := clockNS()
	var mgrNS, calls float64
	for _, s := range t.calls {
		mgrNS += float64(s.ns)
		calls += float64(s.count)
	}
	sw := callStat{t.calls[mSwitch].count + t.calls[mSwitchFlush].count, t.calls[mSwitch].ns + t.calls[mSwitchFlush].ns}
	rep.set("core.switch.ns", perCall(sw, clock))
	rep.set("core.save.ns", perCall(t.calls[mSave], clock))
	rep.set("core.restore.ns", perCall(t.calls[mRestore], clock))
	if t.calls[mEvict].count > 0 {
		rep.set("core.evict.ns", perCall(t.calls[mEvict], clock))
	}
	rep.set("core.self_s", (mgrNS-calls*clock)/1e9)
	rep.set("sched.run.self_s", (float64(t.runNS)-mgrNS-calls*clock)/1e9)
	rep.set("harness.cell_ms", median(t.cellMS))
	rep.notef("trace clock_ns=%.1f per timed call, %d timed manager calls", clock, int64(calls))
}
