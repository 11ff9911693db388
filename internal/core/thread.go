// Package core implements the paper's contribution: the window
// management schemes that let multiple threads share a cyclic register
// window file. Three schemes are provided, named as in Section 4.5:
//
//   - NS: the conventional non-sharing scheme; all active windows are
//     flushed on every context switch.
//   - SNP: sharing without private reserved windows; one global reserved
//     window, underflow handled by the proposed in-place restore.
//   - SP: sharing with a private reserved window (PRW) per resident
//     thread.
//
// A fourth manager, the infinite-window Reference model, provides the
// oracle for differential tests.
package core

import (
	"fmt"

	"cyclicwin/internal/mem"
	"cyclicwin/internal/regwin"
	"cyclicwin/internal/stats"
)

// noSlot marks an unset window-slot field.
const noSlot = -1

// frameBytes is the size of one spilled window (16 registers) in the
// memory save area.
const frameBytes = regwin.WindowWords * 4

// Thread is the window-management view of a thread: which window slots
// it owns, where its spilled windows live in memory, and its event
// counters. Scheduling state lives in the sched package, which embeds
// this type.
type Thread struct {
	ID   int
	Name string

	// bottom is the slot of the oldest resident window; high is the
	// uppermost slot the thread owns (its dead windows, if any, lie
	// between its saved CWP and high). Both are noSlot when the thread
	// has no resident windows.
	bottom int
	high   int

	// cwp is the thread's current window slot, live in the register
	// file while running and saved here across suspensions. It is
	// meaningful only when the thread has resident windows.
	cwp int

	// prw is the slot of the thread's private reserved window under the
	// SP scheme, noSlot otherwise.
	prw int

	// depth is the number of caller frames below the current window
	// (resident or spilled); the outermost frame has depth 0.
	depth int

	// saved is the number of windows spilled to the memory save area;
	// saveBase is the (exclusive) top of that area, which grows down,
	// and frames is how many windows the area holds (a uint32 beside
	// saveBase, so the field costs no space).
	saved    int
	saveBase uint32
	frames   uint32

	// burstMin and burstMax track the depth range (infinite-window
	// identities) touched since the last dispatch, for the Section 5
	// window-activity measurement.
	burstMin, burstMax int

	// outs preserves the stack-top out registers across suspensions for
	// schemes that cannot keep them in the register file (NS always,
	// SNP always, SP only when the thread loses its PRW).
	outs     [regwin.NPart]uint32
	outsSave bool

	Stats stats.ThreadCounters
}

// HasWindows reports whether any of the thread's windows are resident in
// the register file.
func (t *Thread) HasWindows() bool { return t.bottom != noSlot }

// Depth reports the thread's current call depth (0 for the outermost
// frame).
func (t *Thread) Depth() int { return t.depth }

// SavedWindows reports how many of the thread's windows currently live
// in the memory save area.
func (t *Thread) SavedWindows() int { return t.saved }

// SaveAreaFrames reports how many windows the thread's memory save area
// holds: its allocator's stack size over the 64-byte frame.
func (t *Thread) SaveAreaFrames() int { return int(t.frames) }

// SaveAreaFull reports whether one more save would give the thread more
// frames than its save area holds. A thread at depth d owns d+1 frames,
// and a flushing switch can put every one of them in the area, so a
// save is allowed only while depth+2 frames fit. Manager.Save does not
// check this: callers that save on a guest's behalf (sched.Env.Call,
// the ISA save instruction) check it first and fail the guest with a
// fault.InvalidWindowOp guest fault instead.
func (t *Thread) SaveAreaFull() bool { return t.depth+2 > int(t.frames) }

// resetWindows marks the thread as owning no window slots.
func (t *Thread) resetWindows() {
	t.bottom, t.high, t.cwp, t.prw = noSlot, noSlot, noSlot, noSlot
}

// initOuts arms the TCB out-register image (all zeros at creation) so
// the first dispatch installs a clean set of out registers instead of
// whatever the allocated slot last held.
func (t *Thread) initOuts() { t.outsSave = true }

// noteDepth widens the current activity burst to cover depth d.
func (t *Thread) noteDepth(d int) {
	if d < t.burstMin {
		t.burstMin = d
	}
	if d > t.burstMax {
		t.burstMax = d
	}
}

func (t *Thread) String() string {
	if t.Name != "" {
		return fmt.Sprintf("thread %d (%s)", t.ID, t.Name)
	}
	return fmt.Sprintf("thread %d", t.ID)
}

// pushFrame spills the 16 in+local registers of window slot w to the top
// of the thread's memory save area. A full area panics rather than
// overwrite the next thread's: only a caller that saved past
// SaveAreaFull can get here.
func (t *Thread) pushFrame(m *mem.Memory, f *regwin.File, w int) {
	if t.saved == int(t.frames) {
		panic(fmt.Sprintf("core: %v pushFrame past its %d-frame save area", t, t.frames))
	}
	var buf [regwin.WindowWords]uint32
	f.SpillWindow(w, &buf)
	t.saved++
	m.StoreFrame(t.saveBase-uint32(t.saved)*frameBytes, &buf)
}

// popFrame fills window slot w from the newest frame in the thread's
// memory save area.
func (t *Thread) popFrame(m *mem.Memory, f *regwin.File, w int) {
	if t.saved == 0 {
		panic(fmt.Sprintf("core: %v popFrame with empty save area", t))
	}
	var buf [regwin.WindowWords]uint32
	m.LoadFrame(t.saveBase-uint32(t.saved)*frameBytes, &buf)
	f.FillWindow(w, &buf)
	t.saved--
}
