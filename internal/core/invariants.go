package core

import (
	"fmt"
	"sync/atomic"
)

// invariantChecks arms the runtime assertion layer: when set, every
// outermost window-management operation (Switch, SwitchFlush, Save,
// Restore, Exit, Evict) on the NS, SNP and SP schemes opens an event
// scope whose close re-runs the full invariant set below, once per
// public call, and panics on the first violation. The default is off:
// an operation with no event hook then opens no scope, and its only
// cost here is the atomic load in machine.observed. Every test package
// that drives a window manager in process turns it on in TestMain, and
// its benchmarks turn it off again.
var invariantChecks atomic.Bool

// SetInvariantChecks toggles the always-on invariant audit. It may be
// flipped at any time; the checks never charge cycles or touch counters,
// so enabling them cannot perturb simulation results.
func SetInvariantChecks(on bool) { invariantChecks.Store(on) }

// InvariantChecksEnabled reports whether the runtime audit is armed.
func InvariantChecksEnabled() bool { return invariantChecks.Load() }

// Verify checks the structural invariants of the NS, SNP and SP
// schemes and returns nil when they hold: every thread's owned slots
// form one contiguous region [bottom..high] with its CWP inside, an SP
// thread's PRW sits immediately above its region, the running thread's
// WIM marks exactly the windows outside its region (the single reserved
// window under NS), and every registered thread conserves its frames
// across spills and the in-place underflow handler (depth+1 frames are
// split exactly between the memory save area and the resident live
// windows). Tests call it after operations, the model checker after
// every step, and SetInvariantChecks after every public operation.
//
// It walks only what the machine already holds — the slot table, each
// resident region and the registered threads — so it allocates nothing
// unless it reports a violation, and violations come out in slot order.
func (m *machine) Verify() error {
	n := m.file.NWindows()

	// The slot table: every owned slot belongs to a thread whose
	// stack-bottom it shares as a normal window (so no thread owns only
	// a PRW), and lies inside that region or is the thread's one PRW.
	for w, sl := range m.slots {
		t := sl.owner
		if t == nil {
			continue
		}
		if !t.HasWindows() {
			return fmt.Errorf("%v owns slot %d but HasWindows is false", t, w)
		}
		if b := m.slots[t.bottom]; b.owner != t || b.prw {
			return fmt.Errorf("%v owns slot %d but not its stack-bottom %d", t, w, t.bottom)
		}
		switch {
		case sl.prw && m.scheme != SchemeSP:
			return fmt.Errorf("scheme %v has a PRW at slot %d", m.scheme, w)
		case sl.prw && t.prw != w:
			return fmt.Errorf("%v PRW field %d does not match table slot %d", t, t.prw, w)
		case !sl.prw && m.file.Distance(t.bottom, w) > m.file.Distance(t.bottom, t.high):
			return fmt.Errorf("%v owns slot %d outside its region [%d..%d]", t, w, t.bottom, t.high)
		}
	}
	if m.reserved != noSlot && m.slots[m.reserved].owner != nil {
		return fmt.Errorf("reserved slot %d is owned by %v", m.reserved, m.slots[m.reserved].owner)
	}

	// Each resident region, reached from its stack-bottom slot (this
	// also reaches threads created on a sibling core but resident
	// here). With the walk above, the region is exactly its owner's
	// normal slots.
	for w, sl := range m.slots {
		t := sl.owner
		if t == nil || sl.prw || w != t.bottom {
			continue
		}
		span := m.file.Distance(t.bottom, t.high)
		for v, i := w, 0; i <= span; v, i = m.file.Above(v), i+1 {
			if s := m.slots[v]; s.owner != t || s.prw {
				return fmt.Errorf("%v's region slot %d is not owned by it", t, v)
			}
		}
		cwp := t.cwp
		if t == m.running {
			cwp = m.file.CWP()
		}
		if m.file.Distance(t.bottom, cwp) > span {
			return fmt.Errorf("%v CWP %d outside region [%d..%d]", t, cwp, t.bottom, t.high)
		}
		// Under SP a resident thread's PRW sits immediately above its
		// region while suspended; while running it bounds the region.
		if m.scheme == SchemeSP {
			if t.prw == noSlot || m.slots[t.prw] != (slot{owner: t, prw: true}) {
				return fmt.Errorf("%v PRW field %d does not match the table", t, t.prw)
			}
			if t.prw != m.file.Above(t.high) {
				return fmt.Errorf("%v PRW %d is not above its high %d", t, t.prw, t.high)
			}
		} else if t.prw != noSlot {
			return fmt.Errorf("%v has a PRW under scheme %v", t, m.scheme)
		}
		if t != m.running && t.high != t.cwp {
			return fmt.Errorf("suspended %v has dead windows (cwp %d, high %d)", t, t.cwp, t.high)
		}
		// Frame conservation: a thread at depth d has d+1 frames, split
		// exactly between the memory save area and the live windows
		// between bottom and CWP. The in-place underflow handler
		// (Section 3.2) and every spill path must keep this exact;
		// losing or duplicating a frame here is how another thread's
		// window gets silently clobbered.
		if live := m.file.Distance(t.bottom, cwp) + 1; t.saved+live != t.depth+1 {
			return fmt.Errorf("%v frame conservation broken: %d saved + %d resident != depth %d + 1",
				t, t.saved, live, t.depth)
		}
	}

	// The registered threads: one with windows owns its stack-bottom
	// (unless a sibling core of a multi-core group holds it, which
	// audits it through its own slot table); a windowless one conserves
	// its frames entirely in the save area.
	for _, t := range m.threads {
		if t.HasWindows() {
			if !m.multi && m.slots[t.bottom].owner != t {
				return fmt.Errorf("%v claims windows but does not own its stack-bottom %d", t, t.bottom)
			}
			continue
		}
		if t.prw != noSlot {
			return fmt.Errorf("windowless %v still holds PRW slot %d", t, t.prw)
		}
		if t.saved != 0 && t.saved != t.depth+1 {
			return fmt.Errorf("windowless %v has %d saved frames at depth %d (want 0 or %d)",
				t, t.saved, t.depth, t.depth+1)
		}
	}

	// The running thread's WIM marks exactly the windows outside its
	// region (sharing schemes) or the single reserved window (NS).
	if r := m.running; r != nil && r.HasWindows() {
		for w := 0; w < n; w++ {
			inRegion := m.file.Distance(r.bottom, w) <= m.file.Distance(r.bottom, r.high)
			var wantInvalid bool
			if m.scheme == SchemeNS {
				wantInvalid = w == m.reserved
			} else {
				wantInvalid = !inRegion
			}
			if m.file.Invalid(w) != wantInvalid {
				return fmt.Errorf("WIM bit of slot %d is %v, want %v (running %v region [%d..%d])",
					w, m.file.Invalid(w), wantInvalid, r, r.bottom, r.high)
			}
		}
		if m.scheme == SchemeNS && m.reserved != m.file.Below(r.bottom) {
			return fmt.Errorf("NS reserved %d is not below running bottom %d", m.reserved, r.bottom)
		}
	}
	return nil
}

// Verify always succeeds for the infinite-window oracle.
func (r *Reference) Verify() error { return nil }

// Verifier is implemented by every manager; tests use it generically.
type Verifier interface{ Verify() error }

var (
	_ Verifier = (*NS)(nil)
	_ Verifier = (*SNP)(nil)
	_ Verifier = (*SP)(nil)
	_ Verifier = (*Reference)(nil)
	_ Manager  = (*NS)(nil)
	_ Manager  = (*SNP)(nil)
	_ Manager  = (*SP)(nil)
	_ Manager  = (*Reference)(nil)
)
