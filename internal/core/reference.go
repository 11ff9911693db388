package core

import (
	"fmt"

	"cyclicwin/internal/cycles"
	"cyclicwin/internal/regwin"
	"cyclicwin/internal/stats"
)

// refFrame is one procedure frame of the infinite-window model.
type refFrame struct {
	ins    [regwin.NPart]uint32
	locals [regwin.NPart]uint32
	outs   [regwin.NPart]uint32
}

// Reference is an infinite-window oracle: every thread keeps its whole
// frame stack, no window ever spills, and the overlap semantics (callee
// ins are caller outs) are applied directly. Differential tests compare
// the registers seen through any real scheme against this model after
// identical operation sequences. It charges no cycles and takes no
// traps.
type Reference struct {
	onEvent EventHook
	running *Thread
	frames  map[*Thread][]refFrame
	globals [regwin.NGlobals]uint32
	cnt     stats.Counters
	cyc     *cycles.Counter
	// areaFrames is the save-area capacity the real schemes would give
	// each thread, so SaveAreaFull agrees with them.
	areaFrames uint32
}

// NewReference returns the infinite-window oracle. Config is accepted
// for interface symmetry; only the cycle counter and the save-area size
// are used.
func NewReference(cfg Config) *Reference {
	c := cfg.Counter
	if c == nil {
		c = new(cycles.Counter)
	}
	return &Reference{
		frames:     make(map[*Thread][]refFrame),
		cyc:        c,
		areaFrames: cfg.stacks().Size() / frameBytes,
	}
}

// Scheme returns SchemeReference.
func (r *Reference) Scheme() Scheme { return SchemeReference }

// NewThread registers a thread with one (outermost) frame pending; the
// frame is created when the thread is first switched to.
func (r *Reference) NewThread(id int, name string) *Thread {
	t := &Thread{ID: id, Name: name, frames: r.areaFrames}
	t.resetWindows()
	return t
}

// Running returns the scheduled thread.
func (r *Reference) Running() *Thread { return r.running }

// Resident reports whether the thread has any frames; with infinite
// windows a started thread is always resident.
func (r *Reference) Resident(t *Thread) bool { return len(r.frames[t]) > 0 }

// SetEventHook implements EventSource. The oracle charges no cycles,
// moves no windows and has no window file, so its events carry only
// the kind, the thread and the clock: Cost, Moved, CWP and WIM stay 0.
func (r *Reference) SetEventHook(h EventHook) { r.onEvent = h }

func (r *Reference) emit(kind EventKind, thread int) {
	if r.onEvent != nil {
		r.onEvent(Event{Cycle: r.cyc.Total(), Kind: kind, Thread: thread})
	}
}

// Switch schedules t. No window moves in the infinite-window model.
func (r *Reference) Switch(t *Thread) { r.switchTo(t, EvSwitch) }

// SwitchFlush is identical to Switch: there is nothing to flush; only
// the reported event kind differs.
func (r *Reference) SwitchFlush(t *Thread) { r.switchTo(t, EvSwitchFlush) }

func (r *Reference) switchTo(t *Thread, kind EventKind) {
	if t != r.running {
		if out := r.running; out != nil {
			out.Stats.Suspensions++
		}
		if len(r.frames[t]) == 0 {
			r.frames[t] = []refFrame{{}}
		}
		r.running = t
		r.cnt.Switches++
		r.cnt.ZeroTransferSwitches++
	}
	r.emit(kind, t.ID)
}

func (r *Reference) top() *refFrame {
	fs := r.frames[r.running]
	return &fs[len(fs)-1]
}

// Save pushes a frame; the callee's in registers are the caller's outs.
func (r *Reference) Save() {
	if r.running == nil {
		panic("core: Save with no running thread")
	}
	t := r.running
	r.cnt.Saves++
	t.Stats.Saves++
	r.frames[t] = append(r.frames[t], refFrame{ins: r.top().outs})
	t.depth++
	r.emit(EvSave, t.ID)
}

// Restore pops a frame; the callee's ins flow back to the caller's outs.
func (r *Reference) Restore() {
	if r.running == nil {
		panic("core: Restore with no running thread")
	}
	t := r.running
	if t.depth == 0 {
		panic(fmt.Sprintf("core: %v restored past its outermost frame; use Exit", t))
	}
	r.cnt.Restores++
	t.Stats.Restores++
	fs := r.frames[t]
	callee := fs[len(fs)-1]
	r.frames[t] = fs[:len(fs)-1]
	r.top().outs = callee.ins
	t.depth--
	r.emit(EvRestore, t.ID)
}

// Exit discards the running thread's frames.
func (r *Reference) Exit() {
	if r.running == nil {
		panic("core: Exit with no running thread")
	}
	t := r.running
	delete(r.frames, t)
	t.depth = 0
	r.running = nil
	r.emit(EvExit, t.ID)
}

// Reg reads register n of the running thread's current frame.
func (r *Reference) Reg(n int) uint32 {
	f := r.top()
	switch {
	case n == 0:
		return 0
	case n < regwin.RegO0:
		return r.globals[n]
	case n < regwin.RegL0:
		return f.outs[n-regwin.RegO0]
	case n < regwin.RegI0:
		return f.locals[n-regwin.RegL0]
	case n < regwin.RegI0+regwin.NPart:
		return f.ins[n-regwin.RegI0]
	default:
		panic(fmt.Sprintf("core: register %d out of range", n))
	}
}

// SetReg writes register n of the running thread's current frame.
func (r *Reference) SetReg(n int, v uint32) {
	f := r.top()
	switch {
	case n == 0:
	case n < regwin.RegO0:
		r.globals[n] = v
	case n < regwin.RegL0:
		f.outs[n-regwin.RegO0] = v
	case n < regwin.RegI0:
		f.locals[n-regwin.RegL0] = v
	case n < regwin.RegI0+regwin.NPart:
		f.ins[n-regwin.RegI0] = v
	default:
		panic(fmt.Sprintf("core: register %d out of range", n))
	}
}

// Counters exposes the oracle's event counts.
func (r *Reference) Counters() *stats.Counters { return &r.cnt }

// Cycles exposes the (unused) cycle counter.
func (r *Reference) Cycles() *cycles.Counter { return r.cyc }
