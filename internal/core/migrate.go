package core

import "cyclicwin/internal/cycles"

// This file implements thread migration for multi-core configurations:
// M machines, each owning a window file, sharing one Memory, one cycle
// counter and one StackAllocator (Config.Stacks). Moving a thread to
// another core is priced as a forced flush on the source core — every
// resident window is spilled to the shared save area, from where the
// destination core refills on demand through the ordinary switch and
// trap paths.

// Migrator is implemented by managers that can forcibly evict a
// thread's resident windows so the thread can be rescheduled onto
// another core's window file (the NS, SNP and SP schemes; the
// Reference oracle keeps no window file and needs no eviction).
type Migrator interface {
	// Evict flushes every resident window of t (and its PRW, if any) to
	// the memory save area, releasing all its slots, and charges the
	// migration cost. It returns the number of windows transferred and
	// is a charged no-op when t has no resident windows. t need not be
	// the running thread.
	Evict(t *Thread) int
}

// Evict implements Migrator for the three schemes sharing the machine
// state.
func (m *machine) Evict(t *Thread) int {
	if m.observed() {
		defer m.evEnd(EvMigrate, t.ID, m.evBegin())
	}
	if t == m.running {
		t.Stats.Suspensions++
		m.noteSuspend(t)
	}
	moved := m.flushResident(t)
	if t == m.running {
		// The source core ends up idle; the next thread dispatched on it
		// performs a full switch-in.
		m.running = nil
	}
	m.cnt.Migrations++
	m.cnt.MigrationSaves += uint64(moved)
	base := uint64(cycles.MigrationBase)
	if m.hw {
		base = cycles.HWMigrationBase
	}
	m.cyc.Add(base + uint64(moved)*cycles.SaveWindow)
	return moved
}

// Evict for SP keeps the simple allocator anchored where the evicted
// running thread's region was, exactly as SwitchFlush does, so the
// next allocation lands in the freshly vacated slots.
func (s *SP) Evict(t *Thread) int {
	if t == s.running && t.HasWindows() {
		s.lastPRW = s.file.Above(t.cwp)
	}
	return s.machine.Evict(t)
}

var (
	_ Migrator = (*NS)(nil)
	_ Migrator = (*SNP)(nil)
	_ Migrator = (*SP)(nil)
)
