package harness

import (
	"sync"
	"sync/atomic"

	"cyclicwin/internal/core"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/spell"
	"cyclicwin/internal/stream"
)

// This file runs an eligible spell cell without running its guest. The
// spell pipeline is a Kahn network: one thread runs at a time, the
// threads interact only through the blocking FIFOs S1..S6, and each
// thread reads and writes fixed streams in an order set by its own
// data; no thread reads a register, the clock or a stream's length. So
// each thread's own sequence of operations — its saves, restores and
// exit, its puts, gets, EOFs and closes, and the guest cycles before
// each — does not depend on how the threads are interleaved, the
// stream sizes, the scheme, the window count or the policy. Those
// traces are recorded once per corpus from one FIFO run over the
// infinite-window Reference, which charges no cycles. A private
// scheduler then replays them: it decides dispatch, blocking and wakes
// exactly as sched.Kernel and stream.Stream do, and makes the live
// run's manager calls at the live run's guest clock, so every simulated
// number is identical (DESIGN §9, "Recorded thread traces").
//
// A FIFO cell, or a working-set cell on NS, does not read its manager
// to schedule, so its schedule depends only on the stream sizes: the
// scheduler runs once per (M, N) over the Reference, and the window
// operations it makes are kept as a linear schedule that any number of
// such cells replay. A working-set cell on SNP or SP reads its
// manager's Resident at every wake, so the scheduler runs on the cell's
// own manager.

// An op is one recorded operation packed into 32 bits: the kind in the
// top byte, an operand in the next (the acting thread of a schedule op,
// the target of a switch; the stream of a trace op), and in the low 16
// bits the guest cycles charged since the previous op. A gap that does
// not fit goes first, as work-only ops of maxGap cycles each.
const (
	opWork = 0xff // a work-only op: guest cycles, no operation
	maxGap = 0xffff
)

// The kinds of a thread trace op. A schedule op's kind is the
// core.EventKind of its window operation.
const (
	traceSave = iota
	traceRestore
	traceExit
	tracePut // stream.OpPut; the stream kinds follow stream.Op's order
	traceGet
	traceEOF
	traceClose
)

// recordSize is the size of every stream in the recording run. Any
// positive sizes give the same traces; large buffers give the fewest
// switches.
const recordSize = 1024

// maxScheduleBytes bounds the packed ops of every trace set and linear
// schedule the corpus cache keeps. Both grow with the text (the traces
// take about 370 KB at QuickSizes, the six schedules 0.8 MB), and
// clients choose the sizes; ops that do not fit are not kept, and their
// cells run live.
const maxScheduleBytes = 16 << 20

// traces are the spell threads' recorded operations for one corpus:
// the thread names in spawn order, one trace per thread, and the output
// checksum. Immutable once recorded, so any number of cells replay
// them at once.
type traces struct {
	names      []string
	ops        [][]uint32
	misspelled int
}

// schedule is a linear schedule: the window operations, acting threads
// and guest cycles of one (M, N) under FIFO, as the scheduler made them
// over the Reference. Immutable once derived.
type schedule struct {
	names      []string
	ops        []uint32
	misspelled int
}

// scheduleEntry guards the derivation of one (M, N) schedule:
// concurrent cells of the key wait for a single derivation. s stays nil
// when the schedule is not kept.
type scheduleEntry struct {
	once sync.Once
	s    *schedule
}

// scheduleKey identifies a linear schedule within one corpus: the
// stream sizes are all of a behaviour that the guest sees.
type scheduleKey struct{ m, n int }

// recordings counts guest runs that record traces, one per corpus.
var recordings atomic.Int64

// replayMode is how RunSpellWith runs a cell.
type replayMode int

const (
	// runLive runs the whole guest on the cell's kernel and manager.
	runLive replayMode = iota
	// replayLinear replays the (M, N) linear schedule.
	replayLinear
	// replayScheduled runs the scheduler over the traces on the cell's
	// own manager.
	replayScheduled
)

// modeOf selects how o runs. A cell replays when nothing but its
// manager's Resident answers could steer the guest: no quantum or
// budget (both read the clock the manager charges), no chaos, no hooks,
// a private save-area allocator and positive stream sizes (a bad size
// keeps the live error). FIFO never reads the manager, and neither does
// working-set scheduling on NS: NS keeps a thread's windows only while
// it runs, and a thread that blocks is switched away from before anyone
// can wake it, so Wake never finds it Resident and queues it at the
// back, as FIFO does. Those cells replay the linear schedule; working-
// set cells on SNP and SP need the scheduler.
func modeOf(o SpellOpts) replayMode {
	if o.Quantum != 0 || o.MaxCycles != 0 || o.Chaos != nil || o.OnManager != nil || o.OnKernel != nil ||
		o.Config.Stacks != nil || o.Behavior.M <= 0 || o.Behavior.N <= 0 {
		return runLive
	}
	if o.Policy == sched.FIFO || o.Scheme == core.SchemeNS {
		return replayLinear
	}
	return replayScheduled
}

// keepOps charges n packed bytes of w's to the store under workloadsMu
// and reports whether they fit. A corpus evicted while its ops were
// made no longer counts against the bound, so its ops are not kept.
func keepOps(w *workload, sz Sizes, n int) bool {
	workloadsMu.Lock()
	defer workloadsMu.Unlock()
	if workloads[sz] != w || scheduleBytes+n > maxScheduleBytes {
		return false
	}
	scheduleBytes += n
	w.scheduleBytes += n
	return true
}

// loadTraces returns the traces of the corpus at sizes sz, recording
// them at the corpus's first use; nil means they are not kept and the
// cell runs live.
func loadTraces(sz Sizes) *traces { return loadWorkload(sz).loadTraces(sz) }

// loadTraces returns w's traces, recording them at first use.
func (w *workload) loadTraces(sz Sizes) *traces {
	w.tracesOnce.Do(func() {
		if tr := recordTraces(w); tr != nil && keepOps(w, sz, 4*tr.len()) {
			w.traces = tr
		}
	})
	return w.traces
}

// len returns the number of ops of every trace.
func (tr *traces) len() int {
	n := 0
	for _, ops := range tr.ops {
		n += len(ops)
	}
	return n
}

// loadSchedule returns the linear schedule of behaviour b's stream
// sizes at corpus sizes sz, deriving it at the key's first use; nil
// means it is not kept and the cell runs live.
func loadSchedule(b Behavior, sz Sizes) *schedule {
	w := loadWorkload(sz)
	tr := w.loadTraces(sz)
	if tr == nil {
		return nil
	}
	key := scheduleKey{b.M, b.N}
	workloadsMu.Lock()
	e := w.schedules[key]
	if e == nil {
		e = new(scheduleEntry)
		w.schedules[key] = e
	}
	workloadsMu.Unlock()
	e.once.Do(func() {
		if s := tr.linear(b); s != nil && keepOps(w, sz, 4*len(s.ops)) {
			e.s = s
		}
	})
	return e.s
}

// recordTraces runs the guest on a FIFO kernel over the Reference and
// captures each thread's operations: saves, restores and exits through
// the manager's event hook, stream operations through each stream's
// hook. The Reference charges no cycles, so the clock moves only when
// the running thread charges guest work; the cycles since the last
// event go to the running thread, and each op carries the cycles its
// thread charged since its previous op. It returns nil when the run
// fails (its error may carry the clock, which only the live run has
// right) or the ops outgrow maxScheduleBytes. A panic reaches the cell
// that started the recording, and the corpus keeps no traces.
func recordTraces(w *workload) *traces {
	recordings.Add(1)
	ref := core.NewReference(core.Config{})
	k := sched.NewKernel(ref, sched.FIFO)
	p, err := spell.New(k, spell.Config{
		M: recordSize, N: recordSize,
		Source: w.source, MainDict: w.main, ForbiddenDict: w.forbidden,
	})
	if err != nil {
		return nil
	}
	threads := k.Threads()
	ops := make([][]uint32, len(threads))
	work := make([]uint64, len(threads)) // cycles each thread charged since its last op
	cyc := ref.Cycles()
	var last uint64
	running, n := 0, 0
	tick := func() {
		work[running] += cyc.Total() - last
		last = cyc.Total()
	}
	add := func(thread int, kind uint32, operand int) {
		tick()
		if 4*n > maxScheduleBytes {
			return
		}
		before := len(ops[thread])
		ops[thread] = appendOp(ops[thread], kind, operand, work[thread])
		n += len(ops[thread]) - before
		work[thread] = 0
	}
	ref.SetEventHook(func(ev core.Event) {
		switch ev.Kind {
		case core.EvSwitch, core.EvSwitchFlush:
			tick()
			running = ev.Thread
		case core.EvSave:
			add(ev.Thread, traceSave, 0)
		case core.EvRestore:
			add(ev.Thread, traceRestore, 0)
		case core.EvExit:
			add(ev.Thread, traceExit, 0)
		}
	})
	for i, s := range p.Streams() {
		s.SetHook(func(op stream.Op, t *sched.TCB) { add(t.Core.ID, tracePut+uint32(op), i) })
	}
	if err := k.Run(); err != nil || 4*n > maxScheduleBytes {
		return nil
	}
	tr := &traces{ops: make([][]uint32, len(threads)), misspelled: len(p.Misspelled())}
	packed := make([]uint32, 0, n)
	for i, t := range threads {
		tr.names = append(tr.names, t.Name())
		packed = append(packed, ops[i]...)
		tr.ops[i] = packed[len(packed)-len(ops[i]):]
	}
	return tr
}

// appendOp packs one op, preceded by the work-only ops of a gap wider
// than maxGap.
func appendOp(ops []uint32, kind uint32, operand int, gap uint64) []uint32 {
	for ; gap > maxGap; gap -= maxGap {
		ops = append(ops, opWork<<24|maxGap)
	}
	return append(ops, kind<<24|uint32(operand)<<16|uint32(gap))
}

// linear derives b's linear schedule: the scheduler runs the traces
// under FIFO over the Reference, whose event hook captures each window
// operation with the guest cycles since the previous one. It returns
// nil when a thread does not finish or the ops outgrow
// maxScheduleBytes.
func (tr *traces) linear(b Behavior) *schedule {
	ref := core.NewReference(core.Config{})
	var ops []uint32
	var last uint64
	ref.SetEventHook(func(ev core.Event) {
		if 4*len(ops) <= maxScheduleBytes {
			ops = appendOp(ops, uint32(ev.Kind), ev.Thread, ev.Cycle-last)
			last = ev.Cycle
		}
	})
	sizes := spell.Config{M: b.M, N: b.N}.StreamSizes()
	if _, ok := tr.run(ref, sched.FIFO, sizes[:]); !ok || 4*len(ops) > maxScheduleBytes {
		return nil
	}
	if gap := ref.Cycles().Total() - last; gap > 0 {
		ops = appendOp(ops, opWork, 0, gap)
	}
	s := &schedule{names: tr.names, ops: make([]uint32, len(ops)), misspelled: tr.misspelled}
	copy(s.ops, ops)
	return s
}

// replay runs the linear schedule on the cell's own manager: the
// threads are registered in spawn order, which gives them the live
// run's ids and save areas, and each op charges its guest cycles and
// then makes the live run's manager call. An armed invariant audit runs
// inside every call, as it does live.
func (s *schedule) replay(o SpellOpts) Result {
	mgr := core.New(o.Scheme, o.Config)
	threads := make([]*core.Thread, len(s.names))
	for i, name := range s.names {
		threads[i] = mgr.NewThread(i, name)
	}
	cyc := mgr.Cycles()
	for _, op := range s.ops {
		cyc.Add(uint64(op & maxGap))
		switch op >> 24 {
		case uint32(core.EvSwitch):
			mgr.Switch(threads[op>>16&0xff])
		case uint32(core.EvSwitchFlush):
			mgr.SwitchFlush(threads[op>>16&0xff])
		case uint32(core.EvSave):
			mgr.Save()
		case uint32(core.EvRestore):
			mgr.Restore()
		case uint32(core.EvExit):
			mgr.Exit()
		}
	}
	return cellResult(o, mgr, threads, s.misspelled)
}

// replay runs the scheduler over the traces on the cell's own manager
// under the cell's policy. It reports false when a thread does not
// finish; the cell then runs live, which reports the failure.
func (tr *traces) replay(o SpellOpts) (Result, bool) {
	mgr := core.New(o.Scheme, o.Config)
	sizes := spell.Config{M: o.Behavior.M, N: o.Behavior.N}.StreamSizes()
	threads, ok := tr.run(mgr, o.Policy, sizes[:])
	if !ok {
		return Result{}, false
	}
	return cellResult(o, mgr, threads, tr.misspelled), true
}

// cellResult reads a replayed cell's Result off its manager and
// threads, which are in spawn order, the paper's order T1..T7.
func cellResult(o SpellOpts, mgr core.Manager, threads []*core.Thread, misspelled int) Result {
	r := Result{
		Scheme:     o.Scheme,
		Windows:    o.Config.Windows,
		Policy:     o.Policy,
		Behavior:   o.Behavior,
		Cycles:     mgr.Cycles().Total(),
		Counters:   *mgr.Counters(),
		Misspelled: misspelled,
	}
	for i, t := range threads {
		r.ThreadSuspensions[i] = t.Stats.Suspensions
	}
	return r
}

// schedThread is the scheduler's view of one spell thread: the
// kernel's TCB fields it needs, its trace and its position in it.
type schedThread struct {
	core         *core.Thread
	state        sched.State
	wokeResident bool
	ops          []uint32
	pc           int
	// charged marks a thread blocked on ops[pc], whose guest cycles
	// are on the clock already.
	charged bool
}

// schedStream is the scheduler's view of one stream: its occupancy,
// not its bytes, and the threads parked on it.
type schedStream struct {
	size, count      int
	closed           bool
	readers, writers []int
}

// readyRing is the ready queue, a ring of thread indices like the
// kernel's tcbRing. A thread is queued at most once, so a power of two
// of at least one slot per thread never fills.
type readyRing struct {
	buf     []int
	head, n int
}

func (r *readyRing) pushBack(i int) {
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = i
	r.n++
}

func (r *readyRing) pushFront(i int) {
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = i
	r.n++
}

func (r *readyRing) popFront() int {
	i := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return i
}

// run schedules the traces onto mgr, with streams of the given sizes
// (S1..S6 in order) under policy, and returns the threads in spawn
// order. Each step mirrors the kernel or stream function named in its
// comment, so mgr sees the calls of a live run at the same guest clock.
// It reports false when the run ends with a thread not done: the
// queue ran dry with threads blocked (a deadlock), or a thread's next
// op disagrees with its stream (its trace does not fit this run, and
// the live run would fail or take another path).
func (tr *traces) run(mgr core.Manager, policy sched.Policy, sizes []int) ([]*core.Thread, bool) {
	ts := make([]schedThread, len(tr.names))
	threads := make([]*core.Thread, len(ts))
	slots := 1
	for slots < len(ts) {
		slots <<= 1
	}
	ready := readyRing{buf: make([]int, slots)}
	// Kernel.Spawn: register every thread and queue it in spawn order.
	for i, name := range tr.names {
		threads[i] = mgr.NewThread(i, name)
		ts[i] = schedThread{core: threads[i], state: sched.Ready, ops: tr.ops[i]}
		ready.pushBack(i)
	}
	streams := make([]schedStream, len(sizes))
	for i, n := range sizes {
		streams[i].size = n
	}
	ws := policy == sched.WorkingSet
	// Kernel.Wake: a blocked thread becomes ready; under the working-
	// set policy one whose windows are resident goes to the front.
	wake := func(i int) {
		t := &ts[i]
		if t.state != sched.Blocked {
			return
		}
		t.state = sched.Ready
		if ws && mgr.Resident(t.core) {
			t.wokeResident = true
			ready.pushFront(i)
		} else {
			ready.pushBack(i)
		}
	}
	// Stream.wakeReaders and Stream.wakeWriters.
	wakeAll := func(q []int) []int {
		for _, i := range q {
			wake(i)
		}
		return q[:0]
	}
	cyc := mgr.Cycles()
	current := -1
	for {
		// Kernel.pop: under the working-set policy a head whose windows
		// went since its wake is demoted to the back once.
		for ws && ready.n > 1 {
			h := &ts[ready.buf[ready.head]]
			if !h.wokeResident || mgr.Resident(h.core) {
				break
			}
			h.wokeResident = false
			ready.pushBack(ready.popFront())
		}
		if ready.n == 0 {
			// Kernel.dispatch: the run is over; it is clean only if
			// every thread is done.
			for i := range ts {
				if ts[i].state != sched.Done {
					return nil, false
				}
			}
			return threads, true
		}
		i := ready.popFront()
		t := &ts[i]
		t.wokeResident = false
		// Kernel.dispatch: switch the windows to the thread unless it
		// is still the current one.
		if i != current {
			mgr.Switch(t.core)
		}
		current = i
		t.state = sched.Running
	step:
		for {
			op := t.ops[t.pc]
			// Env.Work: the guest cycles before the op, once.
			if !t.charged {
				cyc.Add(uint64(op & maxGap))
			}
			t.charged = false
			s := &streams[op>>16&0xff]
			switch op >> 24 {
			case traceSave: // Env.Call's save
				mgr.Save()
			case traceRestore: // Env.Call's restore
				mgr.Restore()
			case tracePut: // Stream.Put
				if s.closed {
					return nil, false // write after close: the thread fails
				}
				if s.count == s.size {
					s.writers = append(s.writers, i)
					break step
				}
				s.count++
				s.readers = wakeAll(s.readers)
			case traceGet: // Stream.Get returning a byte
				if s.count == 0 {
					if s.closed {
						return nil, false // Get would return EOF
					}
					s.readers = append(s.readers, i)
					break step
				}
				s.count--
				s.writers = wakeAll(s.writers)
			case traceEOF: // Stream.Get returning EOF
				if s.count != 0 {
					return nil, false // Get would return a byte
				}
				if !s.closed {
					s.readers = append(s.readers, i)
					break step
				}
			case traceClose: // Stream.Close
				s.closed = true
				s.readers = wakeAll(s.readers)
				s.writers = wakeAll(s.writers)
			case traceExit: // Kernel.threadMain: the body returned
				mgr.Exit()
				t.state = sched.Done
				t.pc++
				current = -1
				break step
			}
			t.pc++
		}
		if t.state == sched.Running {
			// Kernel.blockCurrent: the thread parked on a stream.
			t.state = sched.Blocked
			t.charged = true
		}
	}
}
