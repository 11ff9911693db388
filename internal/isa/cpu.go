package isa

import (
	"bytes"
	"fmt"

	"cyclicwin/internal/core"
	"cyclicwin/internal/cycles"
	"cyclicwin/internal/fault"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/regwin"
)

// MemCeiling is the exclusive upper bound of guest-addressable data
// memory. The per-thread window save areas are laid out above it (from
// 0xfff0000 downward), so a guest load or store reaching past the
// ceiling would corrupt spilled windows; it faults with
// fault.OutOfRangeMemory instead.
const MemCeiling uint32 = 0xf000000

// CPU interprets the instruction subset on top of a window manager: all
// register accesses go through the manager's current window, and save
// and restore instructions invoke the manager, where the scheme's trap
// handlers run. Step executes one instruction (full decode of the raw
// word, every cycle charged directly to the counter); Run loops over it.
type CPU struct {
	Mgr core.Manager
	Mem *mem.Memory

	pc     uint32
	icc    flags
	halted bool
	yield  bool

	// Console receives bytes written with the TrapPutc software trap.
	Console bytes.Buffer

	// Steps counts executed instructions (a runaway guard uses it).
	Steps uint64
}

type flags struct{ n, z, v, c bool }

// NewCPU returns a processor executing on the given manager and memory.
// A thread must be running on the manager before Step is called.
func NewCPU(mgr core.Manager, m *mem.Memory) *CPU {
	return &CPU{Mgr: mgr, Mem: m}
}

// guestFault builds the typed fault the interpreter raises for
// guest-triggerable conditions, stamped with the current PC, cycle
// total and running thread, and with the CWP of a manager that exposes
// its register file (NS, SNP and SP; not the Reference oracle).
func (c *CPU) guestFault(k fault.Kind, format string, args ...interface{}) error {
	f := &fault.GuestFault{
		Kind:   k,
		PC:     c.pc,
		CWP:    -1,
		Cycle:  c.Mgr.Cycles().Total(),
		Detail: fmt.Sprintf(format, args...),
	}
	if fr, ok := c.Mgr.(interface{ File() *regwin.File }); ok {
		f.CWP = fr.File().CWP()
	}
	if t := c.Mgr.Running(); t != nil {
		f.Thread = t.Name
	}
	return f
}

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// SetPC places execution at addr.
func (c *CPU) SetPC(addr uint32) { c.pc = addr; c.halted = false }

// Halted reports whether a halt trap was executed.
func (c *CPU) Halted() bool { return c.halted }

// Reg reads register r of the current window.
func (c *CPU) Reg(r int) uint32 { return c.Mgr.Reg(r) }

// SetReg writes register r of the current window.
func (c *CPU) SetReg(r int, v uint32) { c.Mgr.SetReg(r, v) }

// Step executes one instruction. It returns an error for malformed or
// unsupported instruction words, and reports whether the program
// yielded (TrapYield) so a scheduler can switch threads.
func (c *CPU) Step() (yielded bool, err error) {
	if c.halted {
		return false, fmt.Errorf("isa: step on halted CPU")
	}
	w := c.Mem.Load32(c.pc)
	in := Decode(w)
	next := c.pc + 4
	cyc := c.Mgr.Cycles()
	c.Steps++

	switch in.Op {
	case opCall:
		c.SetReg(regwin.RegO7, c.pc)
		next = uint32(int64(c.pc) + int64(in.Disp)*4)
		cyc.Add(cycles.InstrCall)

	case opBranch:
		switch in.Op2 {
		case op2Sethi:
			c.SetReg(in.Rd, in.Imm22<<10)
			cyc.Add(cycles.Instr)
		case op2Bicc:
			if c.cond(in.Cond) {
				next = uint32(int64(c.pc) + int64(in.Disp)*4)
			}
			cyc.Add(cycles.InstrBranch)
		default:
			return false, c.guestFault(fault.IllegalInstruction, "unsupported op2 %d", in.Op2)
		}

	case opArith:
		if err := c.arith(in, &next); err != nil {
			return false, err
		}

	case opMem:
		if err := c.memOp(in); err != nil {
			return false, err
		}
		cyc.Add(cycles.InstrMem)
	}

	c.pc = next
	y := c.yield
	c.yield = false
	return y, nil
}

func (c *CPU) operand2(in Instr) uint32 {
	if in.Imm {
		return uint32(in.Simm13)
	}
	return c.Reg(in.Rs2)
}

func (c *CPU) arith(in Instr, next *uint32) error {
	cyc := c.Mgr.Cycles()
	a := c.Reg(in.Rs1)
	b := c.operand2(in)
	switch in.Op3 {
	case Op3Add, Op3AddCC:
		r := a + b
		if in.Op3 == Op3AddCC {
			c.setFlagsAdd(a, b, r)
		}
		c.SetReg(in.Rd, r)
	case Op3Sub, Op3SubCC:
		r := a - b
		if in.Op3 == Op3SubCC {
			c.setFlagsSub(a, b, r)
		}
		c.SetReg(in.Rd, r)
	case Op3AddX, Op3AddXCC:
		carry := uint32(0)
		if c.icc.c {
			carry = 1
		}
		r := a + b + carry
		if in.Op3 == Op3AddXCC {
			c.setFlagsAdd(a, b+carry, r)
		}
		c.SetReg(in.Rd, r)
	case Op3SubX, Op3SubXCC:
		borrow := uint32(0)
		if c.icc.c {
			borrow = 1
		}
		r := a - b - borrow
		if in.Op3 == Op3SubXCC {
			c.setFlagsSub(a, b+borrow, r)
		}
		c.SetReg(in.Rd, r)
	case Op3And, Op3AndCC:
		r := a & b
		if in.Op3 == Op3AndCC {
			c.setFlagsLogic(r)
		}
		c.SetReg(in.Rd, r)
	case Op3Or, Op3OrCC:
		r := a | b
		if in.Op3 == Op3OrCC {
			c.setFlagsLogic(r)
		}
		c.SetReg(in.Rd, r)
	case Op3Xor, Op3XorCC:
		r := a ^ b
		if in.Op3 == Op3XorCC {
			c.setFlagsLogic(r)
		}
		c.SetReg(in.Rd, r)
	case Op3SMul:
		c.SetReg(in.Rd, uint32(int32(a)*int32(b)))
		cyc.Add(cycles.InstrMul) // multiply is multi-cycle on the S-20
	case Op3SDiv:
		if b == 0 {
			return c.guestFault(fault.DivisionByZero, "division by zero")
		}
		c.SetReg(in.Rd, uint32(int32(a)/int32(b)))
		cyc.Add(cycles.InstrDiv)
	case Op3Sll:
		c.SetReg(in.Rd, a<<(b&31))
	case Op3Srl:
		c.SetReg(in.Rd, a>>(b&31))
	case Op3Sra:
		c.SetReg(in.Rd, uint32(int32(a)>>(b&31)))
	case Op3Jmpl:
		c.SetReg(in.Rd, c.pc)
		*next = a + b
		cyc.Add(cycles.InstrCall)
		return nil
	case Op3Save:
		// A save that would overrun the thread's save area is a guest
		// program error, like the restore past the outermost frame.
		if t := c.Mgr.Running(); t != nil && t.SaveAreaFull() {
			return c.guestFault(fault.InvalidWindowOp, "save past the %d-frame save area", t.SaveAreaFrames())
		}
		// Operands are read in the caller's window, the result is
		// written in the new window (the SPARC save-as-add semantics).
		c.Mgr.Save()
		c.SetReg(in.Rd, a+b)
		return nil
	case Op3Restore:
		// A restore past the outermost frame is a guest program error;
		// report it rather than crash the simulator.
		if t := c.Mgr.Running(); t != nil && t.Depth() == 0 {
			return c.guestFault(fault.InvalidWindowOp, "restore past the outermost frame")
		}
		// Operands were read in the callee's window; the destination is
		// written in the caller's window, which — under the proposed
		// in-place underflow handler — may physically be the same slot
		// (the handler's "restore emulation" of Section 4.3).
		c.Mgr.Restore()
		c.SetReg(in.Rd, a+b)
		return nil
	case Op3Ticc:
		return c.trap(int(a + b))
	default:
		return c.guestFault(fault.IllegalInstruction, "unsupported op3 %#x", in.Op3)
	}
	cyc.Add(cycles.Instr)
	return nil
}

func (c *CPU) trap(n int) error {
	switch n {
	case TrapHalt:
		c.halted = true
	case TrapYield:
		c.yield = true
	case TrapPutc:
		c.Console.WriteByte(byte(c.Reg(regwin.RegO0)))
	default:
		return c.guestFault(fault.IllegalInstruction, "unknown software trap %d", n)
	}
	c.Mgr.Cycles().Add(cycles.TrapEnterExit)
	return nil
}

func (c *CPU) memOp(in Instr) error {
	addr := c.Reg(in.Rs1) + c.operand2(in)
	if addr >= MemCeiling {
		return c.guestFault(fault.OutOfRangeMemory, "data access above guest ceiling (addr %#x)", addr)
	}
	switch in.Op3 {
	case Op3Ld:
		if addr&3 != 0 {
			return c.guestFault(fault.MisalignedAccess, "misaligned load (addr %#x)", addr)
		}
		c.SetReg(in.Rd, c.Mem.Load32(addr))
	case Op3Ldub:
		c.SetReg(in.Rd, uint32(c.Mem.Load8(addr)))
	case Op3Ldsb:
		c.SetReg(in.Rd, uint32(int32(int8(c.Mem.Load8(addr)))))
	case Op3Lduh, Op3Ldsh:
		if addr&1 != 0 {
			return c.guestFault(fault.MisalignedAccess, "misaligned halfword load (addr %#x)", addr)
		}
		h := uint32(c.Mem.Load8(addr))<<8 | uint32(c.Mem.Load8(addr+1))
		if in.Op3 == Op3Ldsh {
			h = uint32(int32(int16(h)))
		}
		c.SetReg(in.Rd, h)
	case Op3Sth:
		if addr&1 != 0 {
			return c.guestFault(fault.MisalignedAccess, "misaligned halfword store (addr %#x)", addr)
		}
		v := c.Reg(in.Rd)
		c.Mem.Store8(addr, byte(v>>8))
		c.Mem.Store8(addr+1, byte(v))
	case Op3St:
		if addr&3 != 0 {
			return c.guestFault(fault.MisalignedAccess, "misaligned store (addr %#x)", addr)
		}
		c.Mem.Store32(addr, c.Reg(in.Rd))
	case Op3Stb:
		c.Mem.Store8(addr, byte(c.Reg(in.Rd)))
	default:
		return c.guestFault(fault.IllegalInstruction, "unsupported memory op3 %#x", in.Op3)
	}
	return nil
}

func (c *CPU) cond(cond int) bool {
	f := c.icc
	switch cond {
	case CondN:
		return false
	case CondA:
		return true
	case CondE:
		return f.z
	case CondNE:
		return !f.z
	case CondL:
		return f.n != f.v
	case CondGE:
		return f.n == f.v
	case CondLE:
		return f.z || f.n != f.v
	case CondG:
		return !f.z && f.n == f.v
	case CondCS:
		return f.c
	case CondCC:
		return !f.c
	case CondLEU:
		return f.c || f.z
	case CondGU:
		return !f.c && !f.z
	case CondNeg:
		return f.n
	case CondPos:
		return !f.n
	case CondVS:
		return f.v
	case CondVC:
		return !f.v
	}
	return false
}

func (c *CPU) setFlagsLogic(r uint32) {
	c.icc = flags{n: int32(r) < 0, z: r == 0}
}

func (c *CPU) setFlagsAdd(a, b, r uint32) {
	c.icc = flags{
		n: int32(r) < 0,
		z: r == 0,
		v: (a>>31 == b>>31) && (r>>31 != a>>31),
		c: r < a,
	}
}

func (c *CPU) setFlagsSub(a, b, r uint32) {
	c.icc = flags{
		n: int32(r) < 0,
		z: r == 0,
		v: (a>>31 != b>>31) && (r>>31 == b>>31),
		c: b > a,
	}
}

// Run executes until halt, yield, error or the step limit; limit 0 means
// no limit. It returns whether the program yielded (false means halted)
// and any execution error.
func (c *CPU) Run(limit uint64) (yielded bool, err error) {
	for !c.halted {
		if limit > 0 && c.Steps >= limit {
			return false, c.guestFault(fault.StepLimit, "step limit %d exceeded", limit)
		}
		y, err := c.Step()
		if err != nil {
			return false, err
		}
		if y {
			return true, nil
		}
	}
	return false, nil
}
