package core

import (
	"fmt"

	"cyclicwin/internal/cycles"
)

// SNP is the sharing scheme without private reserved windows (Section
// 4.5): threads share the window file, one global reserved window bounds
// the running thread's growth, and the stack-top out registers must be
// saved and restored through the TCB on every context switch because
// they live in the shared reserved window. When a scheduled thread has
// no windows, one is allocated just above the suspended thread's windows
// (the simple allocation of Section 4.2).
type SNP struct {
	machine
	reserved    int // the single global reserved slot, noSlot before first use
	searchAlloc bool
}

// NewSNP returns a sharing-without-PRW manager.
func NewSNP(cfg Config) *SNP {
	s := &SNP{machine: newMachine(cfg), reserved: noSlot, searchAlloc: cfg.SearchAlloc}
	s.selfVerify = s.Verify
	return s
}

// Scheme returns SchemeSNP.
func (s *SNP) Scheme() Scheme { return SchemeSNP }

// NewThread registers a thread.
func (s *SNP) NewThread(id int, name string) *Thread {
	return s.newThread(id, name)
}

// Resident reports whether t still has windows in the file.
func (s *SNP) Resident(t *Thread) bool { return t.HasWindows() }

// setReserved moves the global reserved window to slot w. The slot must
// already be free.
func (s *SNP) setReserved(w int) {
	if s.slots[w].owner != nil {
		panic(fmt.Sprintf("core: SNP reserving owned slot %d", w))
	}
	s.reserved = w
}

// Switch suspends the running thread in situ and schedules t,
// re-establishing the reserved window above t's stack-top (Figure 9a)
// and swapping the stack-top out registers through the TCB.
func (s *SNP) Switch(t *Thread) {
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
			s.saveOuts(out)
			s.freeDeadAbove(out)
		}
	}

	if t.HasWindows() {
		// The reserved window must sit just above t's stack-top; spill
		// the stack-bottom of whatever region occupies that slot.
		r := s.file.Above(t.high)
		if s.slots[r].owner != nil {
			s.spillBottom(r, true)
			saves++
		}
		s.setReserved(r)
		s.file.SetCWP(t.cwp)
		s.restoreOuts(t)
	} else {
		// Allocate just above the suspended thread's windows, i.e. at
		// the old reserved slot, then reserve the slot above it. Under
		// the search policy (Section 4.2), prefer any free window whose
		// neighbour above is also free, avoiding a spill entirely.
		w := s.reserved
		if w == noSlot {
			w = s.file.CWP()
		}
		if s.searchAlloc {
			if v, ok := s.searchFreePair(w); ok {
				w = v
			}
		}
		if s.slots[w].owner != nil {
			panic(fmt.Sprintf("core: SNP allocation slot %d is owned", w))
		}
		r := s.file.Above(w)
		if s.slots[r].owner != nil {
			s.spillBottom(r, true)
			saves++
		}
		s.setReserved(r)
		s.owned(w, t)
		t.bottom, t.high, t.cwp = w, w, w
		if t.saved > 0 {
			t.popFrame(s.mem, s.file, w)
			restores++
		} else {
			s.file.ClearWindow(w)
		}
		s.file.SetCWP(w)
		s.restoreOuts(t)
	}
	s.setWIMRegion(t)
	s.noteDispatch(t)
	s.running = t
	s.chargeSwitch(s.switchBase(cycles.SwitchBaseSNP, cycles.OutRegisterSwap)+
		uint64(saves)*cycles.SwitchSaveSNP+
		uint64(restores)*cycles.SwitchRestoreSNP, saves, restores)
}

// searchFreePair scans upward from the preferred slot for a free window
// whose neighbour above is also free (so neither the allocation nor the
// new reserved window needs a spill) and whose neighbour below is not
// another thread's resident window — otherwise switching back to that
// thread would have to spill the new allocation to re-reserve above it,
// which is exactly the ping-pong of Section 4.2. The third condition is
// relaxed if nothing satisfies it. The search costs one cycle per slot
// probed — the trade-off the paper notes "may be worth the extra cost".
func (s *SNP) searchFreePair(preferred int) (int, bool) {
	probes := 0
	defer func() { s.cyc.Add(uint64(probes)) }()
	fallback := -1
	w := preferred
	for i := 0; i < s.file.NWindows(); i++ {
		probes++
		above := s.file.Above(w)
		if s.slots[w].owner == nil && s.slots[above].owner == nil {
			if s.slots[s.file.Below(w)].owner == nil {
				return w, true
			}
			if fallback < 0 {
				fallback = w
			}
		}
		w = above
	}
	if fallback >= 0 {
		return fallback, true
	}
	return 0, false
}

// SwitchFlush flushes all windows of the running thread before switching
// (Section 4.4), for threads expected to sleep for a long time.
func (s *SNP) SwitchFlush(t *Thread) {
	if s.observed() {
		defer s.evEnd(EvSwitchFlush, t.ID, s.evBegin())
	}
	if t == s.running {
		return
	}
	flushed := 0
	if out := s.running; out != nil {
		flushed = s.flushResident(out)
	}
	s.cnt.SwitchSaves += uint64(flushed)
	s.cyc.Add(uint64(flushed) * cycles.SaveWindow)
	s.cnt.SwitchCycles += uint64(flushed) * cycles.SaveWindow
	s.Switch(t)
}

// Save executes a save instruction; on overflow the windows above the
// reserved one (starting with the globally oldest stack-bottom) are
// spilled and the reserved window advances, granting the freed slots to
// the running thread.
func (s *SNP) Save() {
	s.sharedSave(func(t *Thread, k int) int {
		if s.file.Above(t.high) != s.reserved {
			panic(fmt.Sprintf("core: SNP overflow of %v but reserved %d is not above high %d", t, s.reserved, t.high))
		}
		spilled := 0
		boundary := s.reserved
		for i := 0; i < k; i++ {
			victim := s.file.Above(boundary)
			if s.slots[victim].owner != nil {
				s.spillBottom(victim, true)
				spilled++
			}
			boundary = victim
		}
		s.reserved = boundary
		s.file.SetInvalid(boundary, true)
		return spilled
	})
}

// Restore executes a restore instruction with the proposed in-place
// underflow handler.
func (s *SNP) Restore() { s.sharedRestore() }

// Exit releases the running thread's windows. The reserved window stays
// where it is.
func (s *SNP) Exit() {
	t := s.exitCommon(false)
	_ = t
}
