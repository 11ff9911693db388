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
// in this repository turns it on in TestMain.
var invariantChecks atomic.Bool

// SetInvariantChecks toggles the always-on invariant audit. It may be
// flipped at any time; the checks never charge cycles or touch counters,
// so enabling them cannot perturb simulation results.
func SetInvariantChecks(on bool) { invariantChecks.Store(on) }

// InvariantChecksEnabled reports whether the runtime audit is armed.
func InvariantChecksEnabled() bool { return invariantChecks.Load() }

// Verify checks the structural invariants shared by the real schemes:
// every thread's owned slots form one contiguous region [bottom..high]
// with its CWP inside, PRW slots sit immediately above their owner's
// region, the running thread's WIM marks exactly the windows outside
// its region, and every registered thread conserves its frames across
// spills and the in-place underflow handler (depth+1 frames are split
// exactly between the memory save area and the resident live windows).
// It returns nil when consistent. Tests call it after every operation;
// the harness calls it at checkpoints; SetInvariantChecks runs it after
// every operation at runtime.
func (m *machine) verify(scheme Scheme, reserved int) error {
	n := m.file.NWindows()

	// Collect owners and per-thread slot sets from the ownership table.
	type owned struct {
		windows map[int]bool
		prw     int
	}
	byThread := make(map[*Thread]*owned)
	for w, sl := range m.slots {
		if sl.owner == nil {
			continue
		}
		o := byThread[sl.owner]
		if o == nil {
			o = &owned{windows: make(map[int]bool), prw: noSlot}
			byThread[sl.owner] = o
		}
		if sl.prw {
			if scheme != SchemeSP {
				return fmt.Errorf("scheme %v has a PRW at slot %d", scheme, w)
			}
			if o.prw != noSlot {
				return fmt.Errorf("%v owns two PRWs (%d and %d)", sl.owner, o.prw, w)
			}
			o.prw = w
		} else {
			o.windows[w] = true
		}
	}

	if reserved != noSlot && m.slots[reserved].owner != nil {
		return fmt.Errorf("reserved slot %d is owned by %v", reserved, m.slots[reserved].owner)
	}

	for t, o := range byThread {
		if len(o.windows) == 0 {
			return fmt.Errorf("%v owns only a PRW (slot %d)", t, o.prw)
		}
		if !t.HasWindows() {
			return fmt.Errorf("%v owns %d slots but HasWindows is false", t, len(o.windows))
		}
		// The region [bottom..high] must exactly cover the owned slots.
		count := 0
		for w := t.bottom; ; w = m.file.Above(w) {
			if !o.windows[w] {
				return fmt.Errorf("%v's region slot %d is not owned by it", t, w)
			}
			count++
			if count > n {
				return fmt.Errorf("%v's region does not close", t)
			}
			if w == t.high {
				break
			}
		}
		if count != len(o.windows) {
			return fmt.Errorf("%v region size %d but owns %d slots", t, count, len(o.windows))
		}
		// CWP must lie within [bottom..high].
		cwp := t.cwp
		if t == m.running {
			cwp = m.file.CWP()
		}
		if m.file.Distance(t.bottom, cwp) > m.file.Distance(t.bottom, t.high) {
			return fmt.Errorf("%v CWP %d outside region [%d..%d]", t, cwp, t.bottom, t.high)
		}
		// Under SP a resident thread's PRW sits immediately above its
		// region while suspended; while running it bounds the region.
		if scheme == SchemeSP {
			if t.prw == noSlot || o.prw != t.prw {
				return fmt.Errorf("%v PRW field %d does not match table %d", t, t.prw, o.prw)
			}
			if t.prw != m.file.Above(t.high) {
				return fmt.Errorf("%v PRW %d is not above its high %d", t, t.prw, t.high)
			}
		} else if o.prw != noSlot || t.prw != noSlot {
			return fmt.Errorf("%v has a PRW under scheme %v", t, scheme)
		}
		if t != m.running && t.high != t.cwp {
			return fmt.Errorf("suspended %v has dead windows (cwp %d, high %d)", t, t.cwp, t.high)
		}
		// Frame conservation for resident threads (including threads
		// created on a sibling core but resident here): a thread at
		// depth d has d+1 frames, split exactly between the memory save
		// area and the live windows between bottom and CWP. The
		// in-place underflow handler (Section 3.2) and every spill path
		// must keep this exact; losing or duplicating a frame here is
		// how another thread's window gets silently clobbered.
		live := m.file.Distance(t.bottom, cwp) + 1
		if t.saved+live != t.depth+1 {
			return fmt.Errorf("%v frame conservation broken: %d saved + %d resident != depth %d + 1",
				t, t.saved, live, t.depth)
		}
	}

	// Every registered thread the ownership table cannot reach must be
	// windowless and conserve its frames entirely in the save area — or,
	// in a multi-core group, be resident on a sibling core's window
	// file, which audits it through its own ownership table.
	for _, t := range m.threads {
		if t.HasWindows() {
			if byThread[t] == nil && !m.multi {
				return fmt.Errorf("%v claims windows but owns no slots", t)
			}
			continue // audited through the ownership table above
		}
		if o := byThread[t]; o != nil {
			return fmt.Errorf("%v owns %d slots but HasWindows is false", t, len(o.windows))
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
			if scheme == SchemeNS {
				wantInvalid = w == reserved
			} else {
				wantInvalid = !inRegion
			}
			if m.file.Invalid(w) != wantInvalid {
				return fmt.Errorf("WIM bit of slot %d is %v, want %v (running %v region [%d..%d])",
					w, m.file.Invalid(w), wantInvalid, r, r.bottom, r.high)
			}
		}
		if scheme == SchemeNS && reserved != m.file.Below(r.bottom) {
			return fmt.Errorf("NS reserved %d is not below running bottom %d", reserved, r.bottom)
		}
	}
	return nil
}

// Verify checks the NS manager's invariants.
func (ns *NS) Verify() error { return ns.verify(SchemeNS, ns.reserved) }

// Verify checks the SNP manager's invariants, including that the global
// reserved window is free.
func (s *SNP) Verify() error { return s.verify(SchemeSNP, s.reserved) }

// Verify checks the SP manager's invariants.
func (s *SP) Verify() error { return s.verify(SchemeSP, noSlot) }

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
