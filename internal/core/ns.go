package core

import (
	"fmt"

	"cyclicwin/internal/cycles"
	"cyclicwin/internal/regwin"
)

// NS is the conventional non-sharing scheme (Section 4.5): windows are
// never shared among threads, and every context switch flushes all
// active windows of the suspended thread to memory and restores the
// stack-top window of the scheduled thread. While a thread runs, window
// management is the basic algorithm of Section 2 with a single reserved
// window.
type NS struct {
	machine
	reserved int // the single reserved window slot
}

// NewNS returns a non-sharing manager.
func NewNS(cfg Config) *NS {
	ns := &NS{machine: newMachine(cfg), reserved: noSlot}
	ns.selfVerify = ns.Verify
	return ns
}

// Scheme returns SchemeNS.
func (ns *NS) Scheme() Scheme { return SchemeNS }

// NewThread registers a thread. It owns no windows until first switched
// to.
func (ns *NS) NewThread(id int, name string) *Thread {
	return ns.newThread(id, name)
}

// Resident always reports false for suspended threads: NS flushes every
// window at switch-out, so a thread's windows survive only while it
// runs.
func (ns *NS) Resident(t *Thread) bool {
	return t == ns.running && t.HasWindows()
}

// Switch flushes all active windows of the running thread, then restores
// the stack-top window of t (Table 2, NS rows: k saves + 1 restore).
func (ns *NS) Switch(t *Thread) { ns.switchTo(t, EvSwitch) }

// SwitchFlush is identical to Switch for NS, which always flushes; only
// the reported event kind differs.
func (ns *NS) SwitchFlush(t *Thread) { ns.switchTo(t, EvSwitchFlush) }

func (ns *NS) switchTo(t *Thread, kind EventKind) {
	if ns.observed() {
		defer ns.evEnd(kind, t.ID, ns.evBegin())
	}
	if t == ns.running {
		return
	}
	saves, restores := 0, 0

	if out := ns.running; out != nil {
		ns.syncCWP(out)
		out.Stats.Suspensions++
		ns.noteSuspend(out)
		ns.saveOuts(out)
		if out.HasWindows() {
			// Flush live windows oldest-first so the save area stays in
			// stack order.
			ns.region(out.bottom, out.cwp, func(w int) {
				out.pushFrame(ns.mem, ns.file, w)
				saves++
			})
			ns.region(out.bottom, out.high, func(w int) {
				ns.free(w)
				ns.file.ClearWindow(w)
			})
			out.resetWindows()
		}
	}

	// The scheduled thread's stack-top is placed at the file's current
	// CWP slot; everything except the window below it becomes valid.
	w := ns.file.CWP()
	switch {
	case t.saved > 0:
		t.popFrame(ns.mem, ns.file, w)
		restores++
	default:
		ns.file.ClearWindow(w)
	}
	t.bottom, t.high, t.cwp = w, w, w
	ns.owned(w, t)
	ns.restoreOuts(t)
	ns.reserved = ns.file.Below(w)
	ns.file.SetWIM(regwin.Mask{})
	ns.file.SetInvalid(ns.reserved, true)
	ns.noteDispatch(t)
	ns.running = t

	ns.chargeSwitch(ns.switchBase(cycles.SwitchBaseNS, 0)+
		uint64(saves)*cycles.SwitchSaveNS+
		uint64(restores)*cycles.SwitchRestoreNS, saves, restores)
}

// Save executes a save instruction, spilling stack-bottom windows on
// overflow exactly as in Figure 3. With a transfer depth above one
// (Config.TrapTransfer), one trap spills several of the oldest windows
// so the next deepening saves proceed without trapping — the policy
// space Tamir and Sequin studied.
func (ns *NS) Save() {
	ns.mustRun("Save")
	t := ns.running
	if ns.observed() {
		defer ns.evEnd(EvSave, t.ID, ns.evBegin())
	}
	ns.countSave(t)
	if !ns.file.Save() {
		ns.cnt.OverflowTraps++
		// Spill up to the configured number of live windows, always
		// keeping the current one unless it is the only one (possible
		// only on a 2-window file, where every save spills the caller).
		live := ns.file.Distance(t.bottom, ns.file.CWP()) + 1
		k := ns.transfer
		if k > live-1 {
			k = live - 1
		}
		if k < 1 {
			k = 1
		}
		ns.cnt.TrapSaves += uint64(k)
		ns.cyc.Add(ns.trapOverhead() + uint64(k)*cycles.SaveWindow)
		singleWindow := t.bottom == ns.file.CWP()
		for i := 0; i < k; i++ {
			victim := ns.file.Above(ns.reserved)
			if victim != t.bottom {
				panic(fmt.Sprintf("core: NS overflow victim %d is not %v's stack-bottom %d", victim, t, t.bottom))
			}
			t.pushFrame(ns.mem, ns.file, victim)
			ns.free(victim)
			ns.file.SetInvalid(ns.reserved, false)
			ns.file.SetInvalid(victim, true)
			ns.reserved = victim
			if !singleWindow {
				t.bottom = ns.file.Above(t.bottom)
			}
		}
		if !ns.file.Save() {
			panic("core: NS save trapped twice")
		}
		// Only the entered slot joins the region now; the other freed
		// slots are taken over by later saves without trapping.
		ns.owned(ns.file.CWP(), t)
		t.high = ns.file.CWP()
		if singleWindow {
			t.bottom = ns.file.CWP()
		}
	} else if ns.file.CWP() == ns.file.Above(t.high) {
		ns.owned(ns.file.CWP(), t)
		t.high = ns.file.CWP()
	}
	t.cwp = ns.file.CWP()
	if t.cwp == t.high && ns.file.Distance(t.bottom, t.cwp) >= ns.file.NWindows()-1 {
		panic(fmt.Sprintf("core: NS region of %v swallowed the reserved window", t))
	}
	t.depth++
}

// Restore executes a restore instruction, refilling the missing caller
// window from memory on underflow exactly as in Figure 4.
func (ns *NS) Restore() {
	ns.mustRun("Restore")
	t := ns.running
	if t.depth == 0 {
		panic(fmt.Sprintf("core: %v restored past its outermost frame; use Exit", t))
	}
	if ns.observed() {
		defer ns.evEnd(EvRestore, t.ID, ns.evBegin())
	}
	ns.countRestore(t)
	if !ns.file.Restore() {
		// Window underflow: restore the caller's window into its
		// original slot below and move the reserved window down.
		ns.cnt.UnderflowTraps++
		ns.cnt.TrapRestores++
		ns.cyc.Add(ns.trapOverhead() + cycles.RestoreWindow)
		caller := ns.file.Below(ns.file.CWP())
		if caller != ns.reserved {
			panic(fmt.Sprintf("core: NS underflow into slot %d but reserved is %d", caller, ns.reserved))
		}
		t.popFrame(ns.mem, ns.file, caller)
		ns.file.SetInvalid(caller, false)
		ns.reserved = ns.file.Below(caller)
		ns.file.SetInvalid(ns.reserved, true)
		// When the thread's region spans all n-1 usable windows, the
		// reserved window lands on its own (dead) uppermost window,
		// which must be released.
		if ns.slots[ns.reserved].owner == t {
			if ns.reserved != t.high {
				panic(fmt.Sprintf("core: NS reserved %d landed on %v's slot %d which is not its high %d",
					ns.reserved, t, ns.reserved, t.high))
			}
			ns.free(ns.reserved)
			t.high = ns.file.Below(t.high)
		}
		if !ns.file.Restore() {
			panic("core: NS restore trapped twice")
		}
		ns.owned(caller, t)
		t.bottom = caller
	}
	t.cwp = ns.file.CWP()
	t.depth--
}

// Exit releases the running thread's windows.
func (ns *NS) Exit() { ns.exitCommon(false) }
