//go:build go1.23

// Package sched provides the multi-threading kernel the paper's
// evaluation runs on: guest threads as coroutines, a ring-buffer ready
// queue, the FIFO and working-set (Section 4.6) policies, and blocking
// primitives used by the stream package. All window motion is
// delegated to a core.Manager, so the same workload runs unchanged
// under the NS, SNP and SP schemes. Beyond the paper, the kernel also
// offers priority scheduling with preemption (Policy Priority),
// quantum-based time-slicing (SetQuantum), and multi-core operation
// with deterministic thread migration (NewMultiKernel,
// SetMigrateEvery) for T3-scale configurations; all of these default
// off, leaving the paper's non-preemptive single-core behaviour
// byte-exact.
//
// Each guest thread is an iter.Pull coroutine, and exactly one of them
// holds the processor at any time, so execution is fully deterministic.
// Run is the dispatch loop: it picks the next thread, switches its
// core's windows to it and resumes its coroutine, which runs until the
// thread gives the processor back by blocking, yielding or being
// preempted (each yields to the loop) or by exiting (its coroutine
// returns). A dispatch is two coroutine switches on Run's goroutine; it
// never enters the Go scheduler. A thread's coroutine is made at its
// first dispatch, and Run returns only after every coroutine it made
// has finished: when the run ends with threads unfinished, Run stops
// each one, unwinding its body (its deferred calls run, but Block and
// Yield no longer return) and leaving its windows and state as the run
// left them.
//
// Failure model: guest-triggerable conditions never panic the kernel.
// A thread may Fail with a structured error (the ISA layer raises
// fault.GuestFault values this way), a stuck program produces a
// fault.DeadlockError naming every thread and registered resource, and
// the optional cycle budget turns runaway guests into a
// fault.BudgetError; all three surface as the error of Run. A panic
// in the window manager outside a guest body (during a dispatch, or as
// a thread exits and wakes its joiners) is not a guest fault: Run
// re-raises it on its caller's goroutine.
//
// The go1.23 build constraint raises this file's language version for
// iter.Pull while both modules' go lines stay at go 1.22.
package sched

import (
	"fmt"
	"iter"
	"runtime/debug"

	"cyclicwin/internal/core"
	"cyclicwin/internal/cycles"
	"cyclicwin/internal/fault"
	"cyclicwin/internal/stats"
)

// Policy selects how awoken threads are enqueued.
type Policy int

const (
	// FIFO enqueues every thread at the back of the ready queue.
	FIFO Policy = iota
	// WorkingSet gives priority to threads whose windows are still
	// resident: an awoken thread with windows goes to the front of the
	// ready queue, one without goes to the back (Section 4.6). The
	// basic scheduler remains FIFO; selection happens only at wake-up,
	// so no overhead is added to context switching.
	WorkingSet
	// Priority dispatches the highest-priority ready thread first
	// (FIFO within a level; see TCB.SetPriority), and preempts the
	// running thread at its next safe point whenever a strictly
	// higher-priority thread becomes ready — even without a quantum.
	// An extension beyond the paper, for T3-scale schedules.
	Priority
)

// Policies lists every scheduling policy.
var Policies = []Policy{FIFO, WorkingSet, Priority}

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case WorkingSet:
		return "WS"
	case Priority:
		return "PRIO"
	}
	return "FIFO"
}

// ParsePolicy maps a policy name (as produced by String) back to the
// policy; it accepts FIFO, WS and PRIO.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range Policies {
		if name == p.String() {
			return p, nil
		}
	}
	return FIFO, fmt.Errorf("sched: unknown policy %q (want FIFO, WS or PRIO)", name)
}

// State is a thread's scheduling state.
type State int

const (
	// Ready means the thread is in the ready queue.
	Ready State = iota
	// Running means the thread holds the processor.
	Running
	// Blocked means the thread waits on a condition (stream space/data).
	Blocked
	// Done means the thread's body returned.
	Done
	// Failed means the thread terminated with an error (Env.Fail or a
	// recovered body panic); Kernel.Run returns that error.
	Failed
)

// String returns the state name used in diagnostics.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// TCB is the kernel's view of one guest thread.
type TCB struct {
	Core *core.Thread
	name string
	body func(*Env)

	state State
	env   *Env
	err   error // terminal error when state is Failed

	// next resumes the thread's coroutine until the thread gives the
	// processor back, and stop unwinds it; inside the coroutine, yield
	// gives the processor back to Run's loop and reports false once Run
	// stops the thread. All three are made at the thread's first
	// dispatch.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// joiners are threads blocked in Join on this one.
	joiners []*TCB

	// flushOnSwitch requests the Section 4.4 flushing switch when this
	// thread is suspended (for threads known to sleep long).
	flushOnSwitch bool

	// wokeResident marks a thread that was front-queued by Wake because
	// its windows were resident. Residency can go stale between wake and
	// dispatch (the running thread's growth may reclaim the sleeper's
	// last window), so pop re-checks it and demotes a stale head to the
	// back of the queue — the working-set rationale for jumping the
	// queue no longer holds once the windows are gone.
	wokeResident bool

	// pri is the thread's scheduling priority (Priority policy only);
	// higher values dispatch first.
	pri int

	// coreIdx is the index of the core whose window file currently
	// hosts the thread; dispatches counts dispatches, driving the
	// deterministic migration cadence (Kernel.SetMigrateEvery).
	coreIdx    int
	dispatches uint64
}

// Name returns the thread's name.
func (t *TCB) Name() string { return t.name }

// State returns the thread's scheduling state.
func (t *TCB) State() State { return t.state }

// Err returns the error that terminated the thread (nil unless the
// state is Failed).
func (t *TCB) Err() error { return t.err }

// Stats returns the thread's event counters.
func (t *TCB) Stats() *stats.ThreadCounters { return &t.Core.Stats }

// SetFlushOnSwitch marks the thread to be suspended with the flushing
// switch type (Section 4.4).
func (t *TCB) SetFlushOnSwitch(f bool) { t.flushOnSwitch = f }

// SetPriority sets the thread's scheduling priority, clamped to
// [0, PriorityLevels-1]. Only the Priority policy consults it; higher
// priorities dispatch first.
func (t *TCB) SetPriority(p int) {
	if p < 0 {
		p = 0
	}
	if p >= PriorityLevels {
		p = PriorityLevels - 1
	}
	t.pri = p
}

// Priority returns the thread's scheduling priority.
func (t *TCB) Priority() int { return t.pri }

// CoreIndex reports which core's window file currently hosts the
// thread (always 0 on single-core kernels).
func (t *TCB) CoreIndex() int { return t.coreIdx }

// diag is a registered resource diagnostic (streams register their
// occupancy here) consulted when building a deadlock report.
type diag struct {
	name string
	fn   func() string
}

// Kernel is the scheduler: non-preemptive FIFO/WorkingSet as in the
// paper, optionally preemptive (SetQuantum, the Priority policy) and
// multi-core (NewMultiKernel) for T3-scale configurations. Its state
// is written by Run's loop and by the thread coroutine it resumed, one
// at a time, so the kernel needs no lock.
type Kernel struct {
	// cores are the window managers, one per modelled core; mgr is the
	// manager of the core the current thread runs on (cores[0] between
	// dispatches). All cores share one cycle counter, one memory and
	// one stack allocator.
	cores []core.Manager
	mgr   core.Manager
	// lastOnCore tracks, per core, the thread last dispatched there —
	// the thread the core's manager still considers running, whose
	// flushOnSwitch setting governs the next switch type on that core.
	lastOnCore []*TCB
	// cyc caches mgr.Cycles() so the Work hot path charges the clock
	// without an interface dispatch per call; the counter identity never
	// changes over a manager's lifetime and is shared by all cores.
	cyc     *cycles.Counter
	policy  Policy
	threads []*TCB
	ready   readyQueue
	current *TCB
	nextID  int
	running bool

	// stopping is set while Run stops the unfinished threads.
	stopping bool

	// migrateEvery, when non-zero on a multi-core kernel, migrates a
	// thread to the next core on every migrateEvery-th dispatch of that
	// thread — a deterministic stand-in for a migration rate of
	// 1/migrateEvery.
	migrateEvery int

	// err is the first thread failure, or the error (or panic) a run
	// ended with; the next dispatch ends the run with it.
	err error
	// maxCycles, when non-zero, is the watchdog ceiling on the
	// simulated clock (SetMaxCycles).
	maxCycles uint64
	// chaos, when non-nil, perturbs execution at the kernel's safe
	// points (SetChaos).
	chaos *fault.Injector
	// diags are resource diagnostics for deadlock reports.
	diags []diag

	// quantum, when non-zero, enables preemptive time-slicing — an
	// extension beyond the paper, whose evaluation is entirely
	// non-preemptive. A thread that has run for at least quantum cycles
	// is preempted at its next safe point (a procedure call, a Work
	// charge, or a stream operation) if another thread is ready.
	quantum    uint64
	dispatched uint64 // clock reading at the last dispatch
	// Preemptions counts quantum-expiry switches.
	Preemptions uint64
}

// NewKernel returns a kernel scheduling threads onto mgr's windows under
// the given policy.
func NewKernel(mgr core.Manager, policy Policy) *Kernel {
	return NewMultiKernel([]core.Manager{mgr}, policy)
}

// NewMultiKernel returns a kernel scheduling threads across M cores,
// each owning a window file. The managers must share one cycle counter
// (and, for threads to survive migration, one Memory and one
// StackAllocator — core.Config.Stacks). Threads are assigned home
// cores round-robin at spawn and move only under SetMigrateEvery.
func NewMultiKernel(mgrs []core.Manager, policy Policy) *Kernel {
	if len(mgrs) == 0 {
		panic("sched: NewMultiKernel with no cores")
	}
	cyc := mgrs[0].Cycles()
	for _, m := range mgrs[1:] {
		if m.Cycles() != cyc {
			panic("sched: multi-core managers must share one cycle counter")
		}
	}
	return &Kernel{
		cores:      mgrs,
		mgr:        mgrs[0],
		lastOnCore: make([]*TCB, len(mgrs)),
		cyc:        cyc,
		policy:     policy,
	}
}

// Manager returns the window manager the kernel drives (the current
// thread's core on multi-core kernels).
func (k *Kernel) Manager() core.Manager { return k.mgr }

// Cores returns the per-core window managers.
func (k *Kernel) Cores() []core.Manager { return k.cores }

// coreMgr returns the manager of the core hosting t.
func (k *Kernel) coreMgr(t *TCB) core.Manager { return k.cores[t.coreIdx] }

// SetMigrateEvery arms deterministic thread migration on a multi-core
// kernel: every n-th dispatch of a thread evicts it from its core (a
// forced flush priced by cycles.MigrationBase) and reassigns it to the
// next core round-robin. 0 disables migration. Single-core kernels
// ignore the setting.
func (k *Kernel) SetMigrateEvery(n int) { k.migrateEvery = n }

// TotalCounters aggregates the per-core manager counters into one set
// (a copy; on single-core kernels it equals *Manager().Counters()).
func (k *Kernel) TotalCounters() stats.Counters {
	out := k.cores[0].Counters().Clone()
	for _, m := range k.cores[1:] {
		out.Add(m.Counters())
	}
	return out
}

// Policy returns the scheduling policy.
func (k *Kernel) Policy() Policy { return k.policy }

// Cycles returns the shared cycle counter.
func (k *Kernel) Cycles() *cycles.Counter { return k.cyc }

// Threads returns all spawned threads in spawn order.
func (k *Kernel) Threads() []*TCB { return k.threads }

// SetMaxCycles arms the cycle-budget watchdog: once the simulated clock
// passes n, the simulation stops with a fault.BudgetError naming the
// unfinished threads. 0 disables the watchdog.
func (k *Kernel) SetMaxCycles(n uint64) { k.maxCycles = n }

// RegisterDiag adds a named resource diagnostic consulted when a
// deadlock report is built; fn must be callable at any quiescent point.
func (k *Kernel) RegisterDiag(name string, fn func() string) {
	k.diags = append(k.diags, diag{name, fn})
}

// SetChaos attaches a fault injector and arms the kernel-level
// perturbation points: adversarial preemption, the spurious
// save/restore trap pair, and (when the manager supports it) the
// neutral flush-reload of the running thread's resident windows. The
// injector is consulted at guest safe points (Work and Call).
func (k *Kernel) SetChaos(inj *fault.Injector) {
	k.chaos = inj
	if inj == nil {
		return
	}
	inj.Arm(fault.PointPreempt, func() {
		if k.current != nil && k.ready.len() > 0 {
			k.yieldCurrent()
		}
	})
	inj.Arm(fault.PointSpuriousTrap, func() {
		if k.current != nil {
			// A benign spurious trap pair: the extra save may overflow
			// (driving the real trap handler at this call depth), the
			// restore returns immediately; the guest's registers are
			// untouched.
			k.mgr.Save()
			k.mgr.Restore()
		}
	})
	if rt, ok := k.mgr.(interface{ ChaosRoundTrip() }); ok {
		inj.Arm(fault.PointFlushReload, func() {
			if k.current != nil {
				rt.ChaosRoundTrip()
			}
		})
	}
}

// Spawn creates a guest thread. Threads spawned before Run start in
// spawn order; threads spawned by running guests are enqueued at the
// back of the ready queue. The thread's coroutine is made at its first
// dispatch.
func (k *Kernel) Spawn(name string, body func(*Env)) *TCB {
	coreIdx := k.nextID % len(k.cores)
	t := &TCB{
		Core:    k.cores[coreIdx].NewThread(k.nextID, name),
		coreIdx: coreIdx,
		name:    name,
		body:    body,
		state:   Ready,
	}
	k.nextID++
	t.env = &Env{k: k, tcb: t}
	k.threads = append(k.threads, t)
	k.ready.pushBack(k.level(t), t)
	return t
}

// threadMain is the coroutine of thread t, made at its first dispatch:
// it runs the body and retires the thread. Its return gives the
// processor back to Run's loop for good.
func (k *Kernel) threadMain(t *TCB, yield func(struct{}) bool) {
	t.yield = yield
	err := runBody(t)
	if k.stopping {
		// Run stopped the kernel and t has unwound, leaving its windows
		// and state as the run left them.
		return
	}
	if err != nil {
		t.state = Failed
		t.err = err
		if k.err == nil {
			k.err = err
		}
		// Release the thread's windows even if the fault unwound a
		// half-finished call chain; a secondary panic in the manager
		// must not mask the original fault.
		func() {
			defer func() { _ = recover() }()
			k.mgr.Exit()
		}()
	} else {
		// The body returned: terminate the thread while it is still
		// the manager's running thread.
		k.mgr.Exit()
		t.state = Done
	}
	for _, j := range t.joiners {
		k.Wake(j)
	}
	t.joiners = nil
	k.current = nil
	k.lastOnCore[t.coreIdx] = nil
}

// level returns the ready-queue bucket for t: its priority under the
// Priority policy, the single FIFO bucket otherwise.
func (k *Kernel) level(t *TCB) int {
	if k.policy == Priority {
		return t.pri
	}
	return 0
}

// threadFail is the panic sentinel Env.Fail unwinds the guest body
// with; runBody turns it back into the carried error.
type threadFail struct{ err error }

// stopThread is the panic sentinel a thread stopped by Run unwinds its
// body with; runBody swallows it.
type stopThread struct{}

// runBody executes the thread body, converting Env.Fail and any guest
// panic into an error instead of killing the process.
func runBody(t *TCB) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch r := r.(type) {
			case threadFail:
				err = r.err
			case stopThread:
			default:
				err = fmt.Errorf("sched: %s panicked: %v\n%s", t.name, r, debug.Stack())
			}
		}
	}()
	t.body(t.env)
	return nil
}

// Run dispatches threads until all are done. It returns nil on clean
// completion, the failing thread's error (see Env.Fail), a
// *fault.DeadlockError when blocked threads remain with an empty ready
// queue, or a *fault.BudgetError when the cycle budget (SetMaxCycles)
// is exceeded. A panic raised by the window manager outside a guest
// body is re-raised, with the same value, on the goroutine that called
// Run.
//
// On every end — clean, failed, deadlocked, over budget or panicked —
// Run returns only after every thread coroutine has finished: it stops
// each unfinished thread, unwinding its body (a thread stopped this way
// keeps its state and windows). A run that ended with an error or a
// panic leaves the kernel stopped: a later Run returns that error
// without dispatching.
func (k *Kernel) Run() error {
	if k.running {
		panic("sched: Run called re-entrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	// Priorities are usually assigned between Spawn and Run, after the
	// spawn already enqueued the thread; re-bucket the queue so the
	// first dispatch honours them (mid-run changes take effect at the
	// thread's next enqueue, or lazily via pop's stale-bucket re-file).
	k.refileReady()
	val, err := k.loop()
	k.stopping = true
	for _, t := range k.threads {
		if t.stop != nil {
			t.stop()
		}
	}
	k.stopping = false
	if val != nil {
		k.err = fmt.Errorf("sched: run stopped by a kernel panic: %v", val)
		panic(val)
	}
	k.err = err
	return err
}

// loop is Run's dispatch loop: it dispatches a thread and resumes its
// coroutine, making it at the thread's first dispatch, until the run
// ends. It returns the run's error, or the value of a panic raised
// outside a guest body, which reaches it from dispatch or through the
// coroutine's next.
func (k *Kernel) loop() (val any, err error) {
	defer func() { val = recover() }()
	for {
		t, end := k.dispatch()
		if t == nil {
			return nil, end
		}
		if t.next == nil {
			t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) { k.threadMain(t, yield) })
		}
		t.next()
	}
}

// dispatch is the scheduling step: it picks the next thread, switches
// its core's windows to it and makes it current. When the run is over
// it returns no thread and the error the run ended with (nil when every
// thread is done).
func (k *Kernel) dispatch() (*TCB, error) {
	if k.err != nil {
		return nil, k.err
	}
	if k.maxCycles != 0 && k.cyc.Total() > k.maxCycles {
		return nil, k.budgetError()
	}
	t := k.pop()
	if t == nil {
		for _, th := range k.threads {
			if th.state == Blocked {
				return nil, k.deadlockError()
			}
		}
		return nil, nil // all done
	}
	migrated := k.placeThread(t)
	mgr := k.cores[t.coreIdx]
	if t != k.current || migrated {
		// The switch type is governed by the thread this core last
		// ran (still resident in its manager), not by the globally
		// previous thread, which may live on another core.
		if out := k.lastOnCore[t.coreIdx]; out != nil && out.flushOnSwitch {
			mgr.SwitchFlush(t.Core)
		} else {
			mgr.Switch(t.Core)
		}
	}
	k.lastOnCore[t.coreIdx] = t
	k.mgr = mgr
	k.current = t
	t.state = Running
	k.dispatched = k.cyc.Total()
	return t, nil
}

// suspend gives the processor back to Run's loop on behalf of the
// running thread t, already re-queued or blocked, and returns once t is
// dispatched again; if Run stops the kernel instead, t unwinds.
func (k *Kernel) suspend(t *TCB) {
	if !t.yield(struct{}{}) {
		panic(stopThread{})
	}
}

// placeThread applies the migration policy at dispatch: on every
// migrateEvery-th dispatch of t (multi-core kernels only), t's
// resident windows are forcibly evicted from its core — the forced
// flush the cycle model prices as a migration — and t moves to the
// next core round-robin. It reports whether t changed cores.
func (k *Kernel) placeThread(t *TCB) bool {
	t.dispatches++
	if len(k.cores) < 2 || k.migrateEvery <= 0 || t.dispatches%uint64(k.migrateEvery) != 0 {
		return false
	}
	from := t.coreIdx
	if mig, ok := k.cores[from].(core.Migrator); ok {
		mig.Evict(t.Core)
	}
	if k.lastOnCore[from] == t {
		k.lastOnCore[from] = nil
	}
	t.coreIdx = (from + 1) % len(k.cores)
	return true
}

// threadStates snapshots every thread's scheduling state for a
// diagnostic.
func (k *Kernel) threadStates() []fault.ThreadState {
	out := make([]fault.ThreadState, 0, len(k.threads))
	for _, t := range k.threads {
		out = append(out, fault.ThreadState{Name: t.name, State: t.state.String()})
	}
	return out
}

// deadlockError builds the stuck-program report: every thread's state
// plus every registered resource diagnostic (stream occupancies).
func (k *Kernel) deadlockError() error {
	e := &fault.DeadlockError{Threads: k.threadStates()}
	for _, d := range k.diags {
		e.Resources = append(e.Resources, fault.ResourceState{Name: d.name, Detail: d.fn()})
	}
	return e
}

// budgetError builds the cycle-budget watchdog report.
func (k *Kernel) budgetError() error {
	return &fault.BudgetError{Limit: k.maxCycles, Cycle: k.cyc.Total(), Threads: k.threadStates()}
}

// refileReady rebuilds the ready queue with every thread in the bucket
// its current priority selects, preserving FIFO order within a level.
func (k *Kernel) refileReady() {
	if k.policy != Priority {
		return
	}
	var all []*TCB
	for lvl := 0; lvl < PriorityLevels; lvl++ {
		for k.ready.levels[lvl].len() > 0 {
			all = append(all, k.ready.popFront(lvl))
		}
	}
	for _, t := range all {
		k.ready.pushBack(k.level(t), t)
	}
}

func (k *Kernel) pop() *TCB {
	// Working-set front-queueing is justified only while the woken
	// thread's windows are actually resident. If they were reclaimed
	// between wake and dispatch, demote the head to the back once (the
	// cleared flag guarantees progress) and take the next thread. On
	// the deque a demotion is one pop plus one push — O(1), where the
	// old slice implementation shifted the whole queue.
	for k.policy == WorkingSet && k.ready.len() > 1 {
		h := k.ready.peekFront(0)
		if !h.wokeResident || k.coreMgr(h).Resident(h.Core) {
			break
		}
		h.wokeResident = false
		k.ready.popFront(0)
		k.ready.pushBack(0, h)
	}
	for {
		lvl := k.ready.top()
		if lvl < 0 {
			return nil
		}
		t := k.ready.popFront(lvl)
		// A priority set after enqueue leaves the TCB in a stale
		// bucket; re-file it and pick again.
		if want := k.level(t); want != lvl {
			k.ready.pushBack(want, t)
			continue
		}
		t.wokeResident = false
		return t
	}
}

// Wake moves a blocked thread to the ready queue. Under the working-set
// policy a thread whose windows are still resident is enqueued at the
// front, so the set of threads whose windows fit in the file keeps
// running before anyone evicts them.
func (k *Kernel) Wake(t *TCB) {
	if t.state != Blocked {
		return
	}
	t.state = Ready
	if k.policy == WorkingSet && k.coreMgr(t).Resident(t.Core) {
		t.wokeResident = true
		k.ready.pushFront(0, t)
	} else {
		k.ready.pushBack(k.level(t), t)
	}
}

// ReadyLen reports the current ready-queue length (the paper's parallel
// slackness at this instant).
func (k *Kernel) ReadyLen() int { return k.ready.len() }

// blockCurrent suspends the running thread (caller must be the guest
// goroutine holding the processor) until somebody wakes it.
func (k *Kernel) blockCurrent() {
	if k.stopping {
		panic(stopThread{})
	}
	t := k.current
	t.state = Blocked
	k.suspend(t)
}

// yieldCurrent re-enqueues the running thread at the back (of its
// priority level) and lets the scheduler pick the next one.
func (k *Kernel) yieldCurrent() {
	if k.stopping {
		panic(stopThread{})
	}
	t := k.current
	t.state = Ready
	k.ready.pushBack(k.level(t), t)
	k.suspend(t)
}

// SetQuantum enables preemptive time-slicing with the given quantum in
// cycles (0 restores the paper's non-preemptive behaviour).
func (k *Kernel) SetQuantum(cycles uint64) { k.quantum = cycles }

// maybePreempt yields the running thread at a safe point when (a) the
// Priority policy has a strictly higher-priority thread ready, or (b)
// time-slicing is armed and the quantum expired with somebody else
// ready. Called from the guest side at safe points (Work, both edges
// of Call, stream operations). It is the guard only, small enough to
// inline: a poll that cannot preempt — nobody ready, or a FIFO or
// working-set kernel with no quantum — makes no call.
func (k *Kernel) maybePreempt() {
	if k.ready.n != 0 && (k.quantum != 0 || k.policy == Priority) {
		k.pollPreempt()
	}
}

// pollPreempt is maybePreempt's slow path: somebody is ready and a
// quantum or the Priority policy may preempt the running thread.
func (k *Kernel) pollPreempt() {
	if k.current == nil {
		return
	}
	if k.policy == Priority && k.ready.top() > k.level(k.current) {
		k.preempt()
		return
	}
	if k.quantum == 0 || k.cyc.Total()-k.dispatched < k.quantum {
		return
	}
	k.preempt()
}

// preempt books one preemption — on the kernel and on the current
// core's counters, where it reaches /metrics — and yields.
func (k *Kernel) preempt() {
	k.Preemptions++
	k.mgr.Counters().Preemptions++
	k.yieldCurrent()
}

// Env is the API guest thread bodies program against. Every procedure
// call and return goes through the simulated register windows.
type Env struct {
	k   *Kernel
	tcb *TCB
}

// Kernel returns the kernel, for access to streams and statistics.
func (e *Env) Kernel() *Kernel { return e.k }

// TCB returns the calling thread's control block.
func (e *Env) TCB() *TCB { return e.tcb }

// Fail terminates the calling thread with err: the thread becomes
// Failed, its windows are released, and Kernel.Run returns err. Fail
// never returns to the caller (it unwinds the guest body).
func (e *Env) Fail(err error) {
	panic(threadFail{err})
}

// Work charges n cycles of computation to the simulated clock. It is a
// preemption point when time-slicing is enabled, a chaos consultation
// point, and where the cycle-budget watchdog trips a runaway guest.
func (e *Env) Work(n uint64) {
	k := e.k
	k.cyc.Add(n)
	if k.maxCycles != 0 && k.cyc.Total() > k.maxCycles {
		e.Fail(k.budgetError())
	}
	if k.chaos != nil {
		k.chaos.Poll(fault.PointPreempt)
		k.chaos.Poll(fault.PointFlushReload)
	}
	k.maybePreempt()
}

// Call invokes fn as a procedure: a save instruction allocates a window
// (taking an overflow trap if needed), fn runs in the new window, and a
// restore instruction returns (taking an underflow trap if needed). Up
// to six word arguments are passed in the out registers, appearing to fn
// as its in registers, exactly as in the SPARC ABI. A call that would
// take the thread past its memory save area fails the thread with a
// fault.InvalidWindowOp guest fault.
func (e *Env) Call(fn func(*Env), args ...uint32) {
	if len(args) > 6 {
		panic("sched: more than 6 register arguments")
	}
	e.k.maybePreempt()
	if e.k.chaos != nil {
		e.k.chaos.Poll(fault.PointSpuriousTrap)
		e.k.chaos.Poll(fault.PointFlushReload)
		e.k.chaos.Poll(fault.PointPreempt)
	}
	for i, a := range args {
		e.k.mgr.SetReg(8+i, a) // %o0..%o5
	}
	if t := e.tcb.Core; t.SaveAreaFull() {
		e.Fail(&fault.GuestFault{
			Kind:   fault.InvalidWindowOp,
			Thread: e.tcb.name,
			CWP:    -1,
			Cycle:  e.k.cyc.Total(),
			Detail: fmt.Sprintf("save past the %d-frame save area", t.SaveAreaFrames()),
		})
	}
	e.k.mgr.Save()
	fn(e)
	e.k.mgr.Restore()
	// The return edge is a safe point too: a quantum that expired
	// inside the callee is honoured as soon as the caller's window is
	// back, not deferred to the next unrelated safe point.
	e.k.maybePreempt()
}

// Arg reads the i-th incoming argument (%i0..%i5) of the current
// procedure.
func (e *Env) Arg(i int) uint32 { return e.k.mgr.Reg(24 + i) }

// SetRet places v in the conventional return-value register (%i0), where
// the caller reads it as %o0 after the return.
func (e *Env) SetRet(v uint32) { e.k.mgr.SetReg(24, v) }

// Ret reads the return value of the last Call (%o0).
func (e *Env) Ret() uint32 { return e.k.mgr.Reg(8) }

// Local reads local register %l<i> of the current window.
func (e *Env) Local(i int) uint32 { return e.k.mgr.Reg(16 + i) }

// SetLocal writes local register %l<i> of the current window.
func (e *Env) SetLocal(i int, v uint32) { e.k.mgr.SetReg(16+i, v) }

// Yield voluntarily hands the processor to the next ready thread.
func (e *Env) Yield() { e.k.yieldCurrent() }

// Block suspends the thread until woken; used by synchronisation
// primitives such as streams.
func (e *Env) Block() { e.k.blockCurrent() }

// Join blocks until t has terminated (Done or Failed); it returns
// immediately if t is already terminal. Joining the calling thread
// itself panics. The joiner registers on t's joiner list exactly once:
// a spurious wake re-blocks without re-registering (the registration
// stays valid until t terminates and drains its list), so the list
// cannot grow and no redundant Wake calls are issued.
func (e *Env) Join(t *TCB) {
	if t == e.tcb {
		panic(fmt.Sprintf("sched: %s joining itself", t.name))
	}
	if t.state == Done || t.state == Failed {
		return
	}
	t.joiners = append(t.joiners, e.tcb)
	for t.state != Done && t.state != Failed {
		e.Block()
	}
}
