package core

import (
	"fmt"

	"cyclicwin/internal/cycles"
)

// SP is the sharing scheme with private reserved windows (Section 4.5):
// every thread with resident windows keeps its own reserved window (PRW)
// immediately above its stack-top, where the stack-top out registers and
// the program counters survive suspension, so the best-case context
// switch transfers nothing at all. When a scheduled thread has no
// windows, a window and a PRW are allocated just above the suspended
// thread's PRW, spilling up to two victims (Table 2, SP rows).
type SP struct {
	machine
	// lastPRW remembers the most recently suspended thread's PRW slot so
	// the simple allocator has an anchor even after that thread exits.
	lastPRW int
}

// NewSP returns a sharing-with-PRW manager.
func NewSP(cfg Config) *SP {
	s := &SP{machine: newMachine(cfg), lastPRW: noSlot}
	s.selfVerify = s.Verify
	return s
}

// Scheme returns SchemeSP.
func (s *SP) Scheme() Scheme { return SchemeSP }

// NewThread registers a thread.
func (s *SP) NewThread(id int, name string) *Thread {
	return s.newThread(id, name)
}

// Resident reports whether t still has windows in the file.
func (s *SP) Resident(t *Thread) bool { return t.HasWindows() }

// Switch suspends the running thread in situ — relocating its PRW to
// just above its stack-top, which frees its dead windows at no cost
// (Section 4.1) — and schedules t.
func (s *SP) Switch(t *Thread) {
	if s.observed() {
		defer s.evEnd(EvSwitch, t.ID, s.evBegin())
	}
	if t == s.running {
		return
	}
	saves, restores := 0, 0
	if out := s.running; out != nil {
		s.syncCWP(out)
		out.Stats.Suspensions++
		s.noteSuspend(out)
		if out.HasWindows() {
			s.freeDeadAbove(out)
			s.relocatePRW(out)
			s.lastPRW = out.prw
		}
	}

	if t.HasWindows() {
		// Best case: everything, including the out registers parked in
		// t's PRW, is still in place.
		s.file.SetCWP(t.cwp)
	} else {
		var w, p int
		w, p, saves = s.allocate()
		s.owned(w, t)
		s.slots[p] = slot{owner: t, prw: true}
		t.prw = p
		t.bottom, t.high, t.cwp = w, w, w
		if t.saved > 0 {
			t.popFrame(s.mem, s.file, w)
			restores++
		} else {
			s.file.ClearWindow(w)
		}
		s.file.SetCWP(w)
		// The out registers return from the TCB into the fresh PRW.
		s.restoreOuts(t)
	}
	s.setWIMRegion(t)
	s.noteDispatch(t)
	s.running = t
	s.chargeSwitch(s.switchBase(cycles.SwitchBaseSP, 0)+
		uint64(saves)*cycles.SwitchSaveSP+
		uint64(restores)*cycles.SwitchRestoreSP, saves, restores)
}

// relocatePRW moves t's private reserved window to immediately above its
// stack-top. The stack-top out registers already live physically in the
// in registers of that slot, so nothing is copied ("since the reserved
// window has no information to be copied, there is no overhead").
func (s *SP) relocatePRW(t *Thread) {
	p := s.file.Above(t.cwp)
	if t.prw == p {
		return
	}
	if t.prw != noSlot {
		s.free(t.prw)
		s.file.ClearWindow(t.prw)
	}
	if s.slots[p].owner != nil {
		panic(fmt.Sprintf("core: SP relocating %v's PRW onto owned slot %d", t, p))
	}
	s.slots[p] = slot{owner: t, prw: true}
	t.prw = p
}

// allocate finds a window slot and a PRW slot for a windowless thread,
// just above the most recently suspended thread's PRW (the simple
// allocation of Section 4.2), spilling up to two stack-bottom victims.
// Live PRWs of other threads are skipped rather than stolen; the paper's
// simple allocator never encounters one because freshly spilled regions
// release their PRWs, but external fragmentation can leave them in the
// path.
func (s *SP) allocate() (w, p, saves int) {
	start := s.file.CWP()
	if s.lastPRW != noSlot {
		start = s.file.Above(s.lastPRW)
	}
	w = s.claim(&start, &saves)
	p = s.claim(&start, &saves)
	return w, p, saves
}

// claim makes the slot at *cursor usable, spilling its owner's
// stack-bottom if necessary, skipping live PRWs, and advances the cursor
// past the claimed slot.
func (s *SP) claim(cursor *int, saves *int) int {
	w := *cursor
	for i := 0; ; i++ {
		if i > s.file.NWindows() {
			panic("core: SP allocation found no claimable slot")
		}
		if s.slots[w].prw {
			w = s.file.Above(w)
			continue
		}
		if s.slots[w].owner != nil {
			s.spillBottom(w, true)
			*saves++
			// Spilling may have freed the owner's PRW; the slot itself
			// is now free either way.
		}
		*cursor = s.file.Above(w)
		return w
	}
}

// SwitchFlush flushes all windows (and the PRW) of the running thread
// before switching (Section 4.4).
func (s *SP) SwitchFlush(t *Thread) {
	if s.observed() {
		defer s.evEnd(EvSwitchFlush, t.ID, s.evBegin())
	}
	if t == s.running {
		return
	}
	flushed := 0
	if out := s.running; out != nil {
		if out.HasWindows() {
			s.lastPRW = s.file.Above(out.cwp)
		}
		flushed = s.flushResident(out)
	}
	s.cnt.SwitchSaves += uint64(flushed)
	s.cyc.Add(uint64(flushed) * cycles.SaveWindow)
	s.cnt.SwitchCycles += uint64(flushed) * cycles.SaveWindow
	s.Switch(t)
}

// Save executes a save instruction; on overflow the windows above the
// thread's PRW are spilled (as occupied) and the PRW advances, granting
// the freed slots — starting with the old PRW slot — to the thread.
func (s *SP) Save() {
	s.sharedSave(func(t *Thread, k int) int {
		if s.file.Above(t.high) != t.prw {
			panic(fmt.Sprintf("core: SP overflow of %v but PRW %d is not above high %d", t, t.prw, t.high))
		}
		old := t.prw
		spilled := 0
		boundary := old
		for i := 0; i < k; i++ {
			victim := s.file.Above(boundary)
			if s.slots[victim].prw {
				panic(fmt.Sprintf("core: SP overflow victim %d is a live PRW of %v", victim, s.slots[victim].owner))
			}
			if x := s.slots[victim].owner; x != nil {
				// When t's region wraps the whole file the victim is
				// t's own only window; this handler reassigns the PRW
				// itself, so the rescue is suppressed (t's live outs
				// stay in place).
				s.spillBottom(victim, x != t)
				spilled++
			}
			boundary = victim
		}
		// The slots from the old PRW up to (excluding) the new one are
		// granted to t by sharedSave; the last victim becomes the PRW.
		s.slots[old] = slot{}
		s.slots[boundary] = slot{owner: t, prw: true}
		t.prw = boundary
		s.file.SetInvalid(boundary, true)
		return spilled
	})
}

// Restore executes a restore instruction with the proposed in-place
// underflow handler.
func (s *SP) Restore() { s.sharedRestore() }

// Exit releases the running thread's windows and its PRW.
func (s *SP) Exit() {
	if t := s.running; t != nil && t.HasWindows() && t.prw == s.lastPRW {
		s.lastPRW = noSlot
	}
	s.exitCommon(true)
}
