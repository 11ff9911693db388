// Package regwin models a SPARC-style cyclic overlapping register-window
// file: the Current Window Pointer (CWP), the Window Invalid Mask (WIM),
// the in/local/out register partitions with the out registers of each
// window aliased to the in registers of the window "above" it, and the
// save/restore window motions with their overflow/underflow traps.
//
// Terminology follows the paper: save decrements CWP, window i-1 is
// "above" window i, and a "window" transferred by a trap handler means
// the 16 in+local registers (the outs are handled as the ins of the
// window above).
package regwin

import "fmt"

// Architectural sizes.
const (
	NGlobals    = 8  // %g0-%g7; %g0 reads as zero
	NPart       = 8  // registers per in/local/out partition
	WindowWords = 16 // in + local registers spilled/filled per window

	// MinWindows and MaxWindows bound the implemented window counts.
	// The minimum matches SPARC V8; the maximum extends past the
	// paper's 4..32 evaluation range to T3-class files, where hundreds
	// of hardware threads share register resources. The WIM is a Mask
	// (multi-word bitset) so window counts above 32 stay exact.
	MinWindows = 2
	MaxWindows = 256
)

// Window-relative register numbers, SPARC V8 numbering.
const (
	RegG0 = 0  // globals r0..r7
	RegO0 = 8  // outs    r8..r15
	RegL0 = 16 // locals  r16..r23
	RegI0 = 24 // ins     r24..r31

	RegSP = 14 // %o6, stack pointer
	RegFP = 30 // %i6, frame pointer
	RegO7 = 15 // call writes return address here
	RegI7 = 31 // return address seen by the callee
)

// File is the physical register file. The out registers are not stored:
// Outs(w) aliases Ins(Above(w)), exactly as in the overlapped hardware.
type File struct {
	n       int
	cwp     int
	wim     Mask
	globals [NGlobals]uint32

	// frames holds each window's ins then locals: the 16 registers a
	// trap handler moves, in the order it stores them, so a spill or
	// fill is one 64-byte copy (Frame).
	frames [][WindowWords]uint32

	// cur is the current window's view, refreshed wherever the CWP
	// moves (setCWP), so Reg and SetReg index arrays directly. The
	// backing arrays never reallocate and trap handlers move register
	// contents, not arrays, so only a CWP move can stale it.
	cur window
}

// window is one window's view of the 32 visible registers: register r
// is view[r>>3][r&7], the flat SPARC numbering split into globals,
// outs, locals and ins. The outs are the ins of the window above.
// globals[0] backs %g0; every writer discards register 0, so it reads
// as zero without a branch.
type window [4]*[NPart]uint32

// NewFile returns a register file with n windows, CWP 0 and an empty WIM.
// It panics if n is outside [MinWindows, MaxWindows]; window counts are
// configuration, not data, so a bad count is a programming error.
func NewFile(n int) *File {
	if n < MinWindows || n > MaxWindows {
		panic(fmt.Sprintf("regwin: window count %d outside [%d,%d]", n, MinWindows, MaxWindows))
	}
	f := &File{n: n, frames: make([][WindowWords]uint32, n)}
	f.setCWP(0)
	return f
}

// NWindows reports the number of windows in the file.
func (f *File) NWindows() int { return f.n }

// CWP reports the current window pointer.
func (f *File) CWP() int { return f.cwp }

// SetCWP sets the current window pointer to window w.
func (f *File) SetCWP(w int) { f.setCWP(f.norm(w)) }

// setCWP moves the CWP to slot w, which must already be normalised, and
// refreshes the cached current window.
func (f *File) setCWP(w int) {
	f.cwp = w
	f.cur = f.view(w)
}

// view returns window w's register view; w must be normalised, so one
// compare wraps the window above (which keeps view inlinable).
func (f *File) view(w int) window {
	above := w - 1
	if above < 0 {
		above += f.n
	}
	return window{&f.globals, f.ins(above), f.locals(w), f.ins(w)}
}

// ins and locals return the partitions of window w, which must be
// normalised.
func (f *File) ins(w int) *[NPart]uint32    { return (*[NPart]uint32)(f.frames[w][:NPart]) }
func (f *File) locals(w int) *[NPart]uint32 { return (*[NPart]uint32)(f.frames[w][NPart:]) }

// WIM reports the window invalid mask; bit i set means window i is
// reserved (a save or restore into it traps).
func (f *File) WIM() Mask { return f.wim }

// SetValidRange sets the whole WIM at once: the windows of the cyclic
// range from lo up to hi (lo, lo+1, ..., wrapping past n-1 to 0) are
// valid and every other window is invalid. lo == hi leaves one window
// valid; lo one past hi leaves all n valid. The mask is built a word at
// a time over the file's words only, with no per-window loop; a file
// of up to 64 windows writes its one word in place.
func (f *File) SetValidRange(lo, hi int) {
	lo, hi = f.norm(lo), f.norm(hi)
	// The invalid windows run cyclically from hi+1 to lo-1: the gap
	// between the ends when the valid range wraps, else windows hi+1
	// to n-1 and 0 to lo-1.
	top, bottom := f.n-1, lo-1
	if lo > hi {
		top, bottom = lo-1, -1
	}
	if f.n <= 64 {
		// The WIM's higher words are zero already: no bit at or above
		// the window count is ever set.
		f.wim[0] = lowOnes(hi+1, top) | lowOnes(0, bottom)
		return
	}
	var wim Mask
	for i := 0; i < (f.n+63)>>6; i++ {
		wim[i] = rangeWord(i, hi+1, top) | rangeWord(i, 0, bottom)
	}
	f.wim = wim
}

// Invalid reports whether window w is marked in the WIM.
func (f *File) Invalid(w int) bool { return f.wim.Bit(f.norm(w)) }

// SetInvalid sets or clears the WIM bit of window w.
func (f *File) SetInvalid(w int, invalid bool) {
	f.wim.SetTo(f.norm(w), invalid)
}

// InvalidCount reports how many windows are currently marked invalid.
func (f *File) InvalidCount() int { return f.wim.OnesCount() }

// Above returns the window above w (the one a save moves into): w-1 mod n.
func (f *File) Above(w int) int { return f.norm(w - 1) }

// Below returns the window below w (the one a restore moves into): w+1 mod n.
func (f *File) Below(w int) int { return f.norm(w + 1) }

// Distance returns how many windows lie strictly between w going upward
// (through Above) until reaching v; Distance(w, w) is 0.
func (f *File) Distance(w, v int) int { return f.norm(w - v) }

// norm wraps w into [0, n). Window arguments are slots, a slot plus or
// minus one, or the difference of two slots, all inside [-n, 2n), where
// one compare and one add or subtract suffice; the modulo is kept for
// anything farther out.
func (f *File) norm(w int) int {
	switch {
	case w < 0:
		if w >= -f.n {
			return w + f.n
		}
	case w < f.n:
		return w
	case w < 2*f.n:
		return w - f.n
	}
	return (w%f.n + f.n) % f.n
}

// Reg reads register r (0..31) of the current window. %g0 reads as zero.
// Like every register accessor, it panics with an index error for a
// register number outside 0..31.
func (f *File) Reg(r int) uint32 { return f.cur[r>>3][r&7] }

// SetReg writes register r of the current window. Writes to %g0 are
// discarded, as on hardware.
func (f *File) SetReg(r int, v uint32) {
	if r != 0 {
		f.cur[r>>3][r&7] = v
	}
}

// RegW reads register r (0..31) as seen from window w.
func (f *File) RegW(w, r int) uint32 { return f.view(f.norm(w))[r>>3][r&7] }

// SetRegW writes register r as seen from window w.
func (f *File) SetRegW(w, r int, v uint32) {
	if r != 0 {
		f.view(f.norm(w))[r>>3][r&7] = v
	}
}

// Ins returns the in registers of window w as a mutable view.
func (f *File) Ins(w int) *[NPart]uint32 { return f.ins(f.norm(w)) }

// Locals returns the local registers of window w as a mutable view.
func (f *File) Locals(w int) *[NPart]uint32 { return f.locals(f.norm(w)) }

// Outs returns the out registers of window w, i.e. the ins of the window
// above it.
func (f *File) Outs(w int) *[NPart]uint32 { return f.ins(f.Above(w)) }

// Frame returns the 16 in+local registers of window w, ins first (the
// order the overflow handlers store them), as a mutable view: spilling
// a window copies from it and filling one copies into it.
func (f *File) Frame(w int) *[WindowWords]uint32 { return &f.frames[f.norm(w)] }

// SaveWouldTrap reports whether a save from the current window would hit
// a reserved window and raise a window-overflow trap.
func (f *File) SaveWouldTrap() bool { return f.Invalid(f.Above(f.cwp)) }

// RestoreWouldTrap reports whether a restore from the current window
// would hit a reserved window and raise a window-underflow trap.
func (f *File) RestoreWouldTrap() bool { return f.Invalid(f.Below(f.cwp)) }

// Save performs the CWP motion of a save instruction. It returns false
// without moving if the destination window is reserved (the overflow
// trap case); trap handling is the manager's job. The destination is
// computed once and its WIM bit read directly: the CWP is always
// normalised, so one compare wraps it.
func (f *File) Save() bool {
	w := f.cwp - 1
	if w < 0 {
		w += f.n
	}
	if f.wim.bit(w) {
		return false
	}
	f.setCWP(w)
	return true
}

// Restore performs the CWP motion of a restore instruction. It returns
// false without moving if the destination window is reserved (the
// underflow trap case).
func (f *File) Restore() bool {
	w := f.cwp + 1
	if w == f.n {
		w = 0
	}
	if f.wim.bit(w) {
		return false
	}
	f.setCWP(w)
	return true
}

// CopyInsToOuts copies the in registers of window w onto its out
// registers (the ins of the window above). This is the extra step of the
// proposed underflow handler before the caller's window is restored in
// place (Section 3.2 of the paper).
func (f *File) CopyInsToOuts(w int) {
	w = f.norm(w)
	*f.ins(f.Above(w)) = *f.ins(w)
}

// ClearWindow zeroes the in and local registers of window w. Managers
// use it to scrub freed windows so tests catch stale-data leaks between
// threads.
func (f *File) ClearWindow(w int) {
	f.frames[f.norm(w)] = [WindowWords]uint32{}
}
