package core

import (
	"fmt"

	"cyclicwin/internal/cycles"
)

// This file holds the machinery shared by the two sharing schemes (SNP
// and SP): the WIM discipline, the victim spill used by overflow
// handlers and switch routines, and the proposed in-place underflow
// handler of Section 3.2.
//
// While a thread runs, the WIM marks every window that is not part of
// its owned region [bottom..high] (Section 3.1: "setting the
// corresponding WIM bits to 0, while setting all other WIM bits to 1").
// A save beyond the region therefore traps as an overflow, and a restore
// below the stack-bottom traps as an underflow, even when the
// neighbouring window belongs to another thread.

// setWIMRegion marks every window invalid except t's owned region,
// which runs from bottom up (through Above, decreasing slot numbers)
// to high: in slot numbers, the cyclic range high..bottom.
func (m *machine) setWIMRegion(t *Thread) {
	m.file.SetValidRange(t.high, t.bottom)
}

// spillBottom spills the window at slot w, which must be the stack-bottom
// of its owner, into the owner's memory save area and frees the slot.
// When the owner thereby loses its last resident window, its private
// reserved window (if any) is released too, after rescuing the out
// registers parked in it — unless rescuePRW is false, which only the SP
// overflow handler uses when the victim is the running thread's own
// window (its region wraps the whole file) and the handler reassigns the
// PRW itself.
func (m *machine) spillBottom(w int, rescuePRW bool) {
	x := m.slots[w].owner
	if x == nil {
		panic(fmt.Sprintf("core: spillBottom of free slot %d", w))
	}
	if m.slots[w].prw {
		panic(fmt.Sprintf("core: spillBottom of %v's private reserved window %d", x, w))
	}
	if w != x.bottom {
		panic(fmt.Sprintf("core: spillBottom slot %d is not %v's stack-bottom %d", w, x, x.bottom))
	}
	x.pushFrame(m.mem, m.file, w)
	last := x.bottom == x.high
	m.free(w)
	m.file.ClearWindow(w)
	if !last {
		x.bottom = m.file.Above(x.bottom)
		return
	}
	// The owner lost its last resident window.
	if x.prw != noSlot && rescuePRW {
		// Its stack-top out registers were parked in the private
		// reserved window; rescue them to the TCB and release the slot.
		copy(x.outs[:], m.file.Ins(x.prw))
		x.outsSave = true
		m.free(x.prw)
		m.file.ClearWindow(x.prw)
		x.prw = noSlot
	}
	x.resetWindows()
}

// sharedSave executes a save instruction for the running thread under a
// sharing scheme. On overflow, grow is called to advance the thread's
// boundary window (the global reserved window for SNP, the thread's PRW
// for SP) by k slots, spilling victims as needed; it returns how many
// windows it actually spilled. The k freed slots are granted to the
// thread, so — when the transfer depth is above one — the next k-1
// deepening saves do not trap at all.
func (m *machine) sharedSave(grow func(t *Thread, k int) int) {
	m.mustRun("Save")
	t := m.running
	if m.observed() {
		defer m.evEnd(EvSave, t.ID, m.evBegin())
	}
	m.countSave(t)
	if !m.file.Save() {
		// Window overflow: the thread has exhausted its region.
		if m.file.CWP() != t.high {
			panic(fmt.Sprintf("core: overflow of %v at %d below its high %d", t, m.file.CWP(), t.high))
		}
		m.cnt.OverflowTraps++
		oldHigh := t.high
		// The victim walk may pass from foreign regions into the
		// thread's own oldest windows (the region then slides upward);
		// the configured depth is already clamped to n-2, which keeps
		// the current window and the boundary intact.
		k := m.transfer
		spilled := grow(t, k)
		cost := m.trapOverhead()
		if spilled > 0 {
			m.cnt.TrapSaves += uint64(spilled)
			cost += uint64(spilled) * cycles.SaveWindow
		}
		m.cyc.Add(cost)
		// Grant the k slots above the old high to the thread.
		wrapped := !t.HasWindows() // the only window was the spill victim
		granted := oldHigh
		for i := 0; i < k; i++ {
			granted = m.file.Above(granted)
			m.file.SetInvalid(granted, false)
			m.owned(granted, t)
		}
		if !m.file.Save() {
			panic("core: sharing save trapped twice")
		}
		t.high = granted
		if wrapped {
			t.bottom = m.file.Above(oldHigh)
		}
	}
	t.cwp = m.file.CWP()
	if m.file.Distance(t.bottom, t.cwp) > m.file.Distance(t.bottom, t.high) {
		panic(fmt.Sprintf("core: %v's CWP %d escaped its region [%d..%d]", t, t.cwp, t.bottom, t.high))
	}
	t.depth++
}

// sharedRestore executes a restore instruction for the running thread
// under a sharing scheme, using the proposed in-place underflow handler
// of Section 3.2: the missing caller window is restored in the place of
// the current window after the live in registers are copied to the out
// registers, so no window is ever spilled on underflow and the WIM does
// not move.
func (m *machine) sharedRestore() {
	m.mustRun("Restore")
	t := m.running
	if t.depth == 0 {
		panic(fmt.Sprintf("core: %v restored past its outermost frame; use Exit", t))
	}
	if m.observed() {
		defer m.evEnd(EvRestore, t.ID, m.evBegin())
	}
	m.countRestore(t)
	if !m.file.Restore() {
		// Window underflow at the thread's stack-bottom.
		w := m.file.CWP()
		if w != t.bottom {
			panic(fmt.Sprintf("core: underflow of %v at %d which is not its stack-bottom %d", t, w, t.bottom))
		}
		m.cnt.UnderflowTraps++
		m.cnt.TrapRestores++
		m.cyc.Add(m.underflowInPlaceCost())
		m.file.CopyInsToOuts(w)
		t.popFrame(m.mem, m.file, w)
		// CWP, WIM and the thread's region are all unchanged: the
		// caller virtually went back one window without moving.
	}
	t.cwp = m.file.CWP()
	t.depth--
}

// flushResident spills every live window of t (stack-bottom first) and
// releases all its slots, for the flushing context switch of Section
// 4.4 and for migration evictions. It returns the number of windows
// transferred. The thread need not be running: a suspended resident
// thread's CWP is already synced, and its out registers are saved only
// when the TCB image is not already authoritative (SNP parks them
// there at switch-out; SP leaves them in the PRW, which Outs(t.cwp)
// still aliases).
func (m *machine) flushResident(t *Thread) int {
	if !t.HasWindows() {
		return 0
	}
	if t == m.running {
		m.syncCWP(t)
	}
	if !t.outsSave {
		m.saveOuts(t)
	}
	m.freeDeadAbove(t)
	k := 0
	m.region(t.bottom, t.cwp, func(w int) {
		t.pushFrame(m.mem, m.file, w)
		m.free(w)
		m.file.ClearWindow(w)
		k++
	})
	if t.prw != noSlot {
		m.free(t.prw)
		m.file.ClearWindow(t.prw)
		t.prw = noSlot
	}
	t.resetWindows()
	return k
}

// chargeSwitch books one context switch with the given total cost.
func (m *machine) chargeSwitch(cost uint64, saves, restores int) {
	m.cnt.Switches++
	m.cnt.SwitchSaves += uint64(saves)
	m.cnt.SwitchRestores += uint64(restores)
	m.cnt.SwitchCycles += cost
	m.cnt.SwitchCost.Observe(cost)
	if saves == 0 && restores == 0 {
		m.cnt.ZeroTransferSwitches++
	}
	m.cyc.Add(cost)
}

// underflowInPlaceCost is the proposed handler's cost (Section 3.2/4.3)
// under the active cost model: trap dispatch, one window filled, the in
// registers copied to the outs, and the trapped restore emulated. The
// WIM does not move, so no WIM charge appears in either model.
func (m *machine) underflowInPlaceCost() uint64 {
	enter := uint64(cycles.TrapEnterExit)
	if m.hw {
		enter = cycles.HWTrapEnterExit
	}
	return enter + cycles.RestoreWindow + cycles.InRegisterCopy + cycles.RestoreEmulation
}
