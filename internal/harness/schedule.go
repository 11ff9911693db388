package harness

import (
	"sync"
	"sync/atomic"

	"cyclicwin/internal/core"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/spell"
)

// This file splits an eligible spell cell into its guest schedule and
// its window management. Under FIFO scheduling with no quantum, budget,
// chaos, hook or shared save-area allocator, nothing the kernel or a
// spell thread does reads the window manager: the seven threads run in
// an order, and do guest work between window operations, that depend
// only on the behaviour and the corpus. That schedule is recorded once
// per (behaviour, sizes) against the infinite-window Reference, which
// charges no cycles, and replayed onto each cell's own manager; the
// replay makes the same manager calls, at the same guest clock, as the
// live run, so every simulated number is identical (DESIGN §9,
// "Recorded FIFO schedules"). Working-set scheduling on NS makes FIFO's
// decisions, so its cells replay the same schedule.

// An op is one recorded window operation packed into 32 bits: the
// event kind in the top byte, the acting thread (the target of a
// switch) in the next, and in the low 16 bits the guest cycles charged
// since the previous op. A gap that does not fit goes first, as
// work-only ops of maxGap cycles each.
const (
	opWork = 0xff // a work-only op: guest cycles, no window operation
	maxGap = 0xffff
)

// maxScheduleBytes bounds the packed ops of every schedule the corpus
// cache keeps. A schedule grows with the text (about 4.3 MB for the six
// behaviours at the paper's full sizes, 0.8 MB at QuickSizes), and
// clients choose the sizes; a schedule that does not fit is not kept,
// and its cells run live.
const maxScheduleBytes = 16 << 20

// schedule is one recorded guest run: the thread names in spawn order,
// the packed ops, and the output checksum. A run that could not start
// (an invalid stream size) keeps only its error. Immutable once
// recorded, so any number of cells replay it at once.
type schedule struct {
	names      []string
	ops        []uint32
	misspelled int
	err        error
}

// scheduleEntry guards the recording of one (behaviour, sizes) key:
// concurrent cells of the key wait for a single recording. s stays nil
// when the schedule is not kept.
type scheduleEntry struct {
	once sync.Once
	s    *schedule
}

// scheduleKey identifies a schedule within one corpus: the stream
// sizes are all of a behaviour that the guest sees.
type scheduleKey struct{ m, n int }

// recordings counts schedule recordings in the process.
var recordings atomic.Int64

// replayable reports whether o leaves the guest's schedule independent
// of the manager and unobserved: FIFO with no quantum or budget (both
// read the clock the manager charges), no chaos, no hooks, and a
// private save-area allocator. Working-set scheduling on NS qualifies
// too: NS keeps a thread's windows only while it runs, and a thread
// that blocks is switched away from before anyone can wake it, so Wake
// never finds it Resident and queues it at the back, as FIFO does.
func replayable(o SpellOpts) bool {
	fifo := o.Policy == sched.FIFO || o.Policy == sched.WorkingSet && o.Scheme == core.SchemeNS
	return fifo && o.Quantum == 0 && o.MaxCycles == 0 &&
		o.Chaos == nil && o.OnManager == nil && o.OnKernel == nil && o.Config.Stacks == nil
}

// loadSchedule returns the schedule of behaviour b's guest at sizes sz,
// recording it at the key's first use; nil means it is not kept and
// the cell runs live.
func loadSchedule(b Behavior, sz Sizes) *schedule {
	w := loadWorkload(sz)
	key := scheduleKey{b.M, b.N}
	workloadsMu.Lock()
	e := w.schedules[key]
	if e == nil {
		e = new(scheduleEntry)
		w.schedules[key] = e
	}
	workloadsMu.Unlock()
	e.once.Do(func() {
		s := recordSchedule(w, b)
		if s == nil {
			return
		}
		workloadsMu.Lock()
		defer workloadsMu.Unlock()
		n := 4 * len(s.ops)
		// A corpus evicted while its schedule was recorded no longer
		// counts against the bound, so its schedule is not kept.
		if workloads[sz] != w || scheduleBytes+n > maxScheduleBytes {
			return
		}
		scheduleBytes += n
		w.scheduleBytes += n
		e.s = s
	})
	return e.s
}

// recordSchedule runs b's guest on a FIFO kernel over the Reference
// manager and captures each window operation through its event hook.
// The Reference charges no cycles, so the clock between two events is
// exactly the guest work between them. It returns nil when the run
// fails (its error may carry the clock, which only the live run has
// right) or when the ops outgrow maxScheduleBytes. A panic reaches the
// cell that started the recording, and the key keeps no schedule.
func recordSchedule(w *workload, b Behavior) *schedule {
	recordings.Add(1)
	ref := core.NewReference(core.Config{})
	k := sched.NewKernel(ref, sched.FIFO)
	var ops []uint32
	var last uint64
	full := false
	ref.SetEventHook(func(ev core.Event) {
		if !full {
			ops = appendOp(ops, uint32(ev.Kind), ev.Thread, ev.Cycle-last)
			last = ev.Cycle
			full = 4*len(ops) > maxScheduleBytes
		}
	})
	p, err := spell.New(k, spell.Config{
		M: b.M, N: b.N,
		Source: w.source, MainDict: w.main, ForbiddenDict: w.forbidden,
	})
	if err != nil {
		return &schedule{err: err}
	}
	if err := k.Run(); err != nil || full {
		return nil
	}
	if gap := ref.Cycles().Total() - last; gap > 0 {
		ops = appendOp(ops, opWork, 0, gap)
	}
	s := &schedule{ops: make([]uint32, len(ops)), misspelled: len(p.Misspelled())}
	copy(s.ops, ops)
	for _, t := range k.Threads() {
		s.names = append(s.names, t.Name())
	}
	return s
}

// appendOp packs one op, preceded by the work-only ops of a gap wider
// than maxGap.
func appendOp(ops []uint32, kind uint32, thread int, gap uint64) []uint32 {
	for ; gap > maxGap; gap -= maxGap {
		ops = append(ops, opWork<<24|maxGap)
	}
	return append(ops, kind<<24|uint32(thread)<<16|uint32(gap))
}

// replay runs the schedule on the cell's own manager: the threads are
// registered in spawn order, which gives them the live run's ids and
// save areas, and each op charges its guest cycles and then makes the
// live run's manager call. An armed invariant audit runs inside every
// call, as it does live.
func (s *schedule) replay(o SpellOpts) (Result, error) {
	mgr := core.New(o.Scheme, o.Config)
	if s.err != nil {
		return Result{}, s.err
	}
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
	r := Result{
		Scheme:     o.Scheme,
		Windows:    o.Config.Windows,
		Policy:     o.Policy,
		Behavior:   o.Behavior,
		Cycles:     cyc.Total(),
		Counters:   *mgr.Counters(),
		Misspelled: s.misspelled,
	}
	// Spawn order is the paper's order T1..T7.
	for i, t := range threads {
		r.ThreadSuspensions[i] = t.Stats.Suspensions
	}
	return r, nil
}
