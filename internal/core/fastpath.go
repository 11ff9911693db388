package core

import "cyclicwin/internal/regwin"

// FastWindow is the devirtualized view of the running thread's current
// window: direct pointers into the register file's backing arrays, so
// the interpreter's per-instruction register accesses become plain
// array indexing instead of interface calls through the Manager.
//
// Validity: a FastWindow designates the current window only until the
// next operation that can move the CWP or relocate window contents —
// Save, Restore, Switch, SwitchFlush or Exit (trap handlers run inside
// those). Holders must re-fetch it after any such call. The pointers
// themselves never dangle (the file's arrays are allocated once), but a
// stale FastWindow addresses the wrong window.
//
// Register 0 (%g0) is special-cased by convention, not by the pointers:
// Globals[0] is never written through the managers and always holds
// zero, and fast-path writers must discard writes to register 0
// themselves, mirroring Manager.SetReg.
type FastWindow struct {
	Globals *[regwin.NGlobals]uint32
	Outs    *[regwin.NPart]uint32 // aliases Ins of the window above
	Locals  *[regwin.NPart]uint32
	Ins     *[regwin.NPart]uint32
}

// Reg reads register r (0..31) through the fast window, mirroring
// Manager.Reg for the current window.
func (fw FastWindow) Reg(r int) uint32 {
	switch {
	case r == 0:
		return 0
	case r < regwin.RegO0:
		return fw.Globals[r]
	case r < regwin.RegL0:
		return fw.Outs[r-regwin.RegO0]
	case r < regwin.RegI0:
		return fw.Locals[r-regwin.RegL0]
	default:
		return fw.Ins[r-regwin.RegI0]
	}
}

// SetReg writes register r (0..31) through the fast window, discarding
// writes to %g0 exactly as Manager.SetReg does.
func (fw FastWindow) SetReg(r int, v uint32) {
	switch {
	case r == 0:
		// %g0 is hardwired to zero.
	case r < regwin.RegO0:
		fw.Globals[r] = v
	case r < regwin.RegL0:
		fw.Outs[r-regwin.RegO0] = v
	case r < regwin.RegI0:
		fw.Locals[r-regwin.RegL0] = v
	default:
		fw.Ins[r-regwin.RegI0] = v
	}
}

// WindowAccessor is the narrow fast-path interface a Manager may
// implement to let interpreters bypass Reg/SetReg on the hot path. The
// NS, SNP and SP schemes all implement it through the shared machine
// state; decorators (such as the trace manager) deliberately do not, so
// wrapping a manager transparently falls back to the virtual slow path.
type WindowAccessor interface {
	// FastWindow returns direct register pointers for the running
	// thread's current window. It panics when no thread is running,
	// like Reg and SetReg.
	FastWindow() FastWindow
}

// All three evaluated schemes expose the fast path; the Reference
// oracle does not (its frames live in growable slices, so handing out
// stable pointers would be fragile, and it is never on a hot path).
var (
	_ WindowAccessor = (*NS)(nil)
	_ WindowAccessor = (*SNP)(nil)
	_ WindowAccessor = (*SP)(nil)
)

// FastWindow implements WindowAccessor for the NS, SNP and SP schemes.
func (m *machine) FastWindow() FastWindow {
	m.mustRun("FastWindow")
	w := m.file.CWP()
	return FastWindow{
		Globals: m.file.GlobalsPtr(),
		Outs:    m.file.InsPtr(m.file.Above(w)),
		Locals:  m.file.LocalsPtr(w),
		Ins:     m.file.InsPtr(w),
	}
}
