package isa

import (
	"cyclicwin/internal/cycles"
	"cyclicwin/internal/fault"
	"cyclicwin/internal/regwin"
)

// This file is the fast interpreter core. It executes exactly the
// semantics of the reference path (Step in cpu.go) with three inner-loop
// costs removed:
//
//   - fetch/decode: instructions come predecoded from the per-page
//     icache (predecode.go) instead of Decode on every executed word;
//     stores into cached text invalidate the overwritten words.
//   - register access: reads and writes index the register file's
//     cached current window directly (regwin.File.Reg), which the file
//     itself keeps current wherever the CWP moves; a manager that does
//     not expose its file (the Reference oracle) falls back to Mgr.Reg.
//   - cycle accounting: per-instruction cycles accumulate in c.pend and
//     flush to the shared counter only at basic-block-observable points
//     (before any Manager call, on yield/halt/error/limit, and when Run
//     returns), so totals seen by any outside observer — including an
//     event hook stamping each Save/Restore — are identical to the
//     reference path's.
//
// Any behavioural change here must keep fastpath_test.go green: the
// differential tests execute both paths and require identical
// registers, memory, console output, cycle totals and errors.

// flushCycles drains the batched cycle count into the shared counter.
// It must be called before control reaches anything that can observe
// the counter: every Manager call and every return from runFast.
func (c *CPU) flushCycles() {
	if c.pend != 0 {
		c.Mgr.Cycles().Add(c.pend)
		c.pend = 0
	}
}

// fetch returns the predecoded instruction at pc. Unaligned fetch
// addresses bypass the cache (their word slot would collide with the
// aligned word) and decode into a scratch buffer.
func (c *CPU) fetch(pc uint32) *Instr {
	if pc&3 != 0 {
		c.scratch = Decode(c.Mem.Load32(pc))
		return &c.scratch
	}
	pn := pc >> icachePageShift
	p := c.curPage
	if p == nil || pn != c.curPageNum {
		p = c.icache.page(pn)
		c.curPage, c.curPageNum = p, pn
	}
	idx := (pc & icachePageMask) >> 2
	if !p.decoded[idx] {
		p.instrs[idx] = Decode(c.Mem.Load32(pc))
		p.decoded[idx] = true
	}
	return &p.instrs[idx]
}

// rdReg reads register r of the current window through the register
// file; managers that do not expose one go through Mgr.Reg.
func (c *CPU) rdReg(r int) uint32 {
	if c.file != nil {
		return c.file.Reg(r)
	}
	return c.Mgr.Reg(r)
}

// wrReg writes register r of the current window, mirroring rdReg.
func (c *CPU) wrReg(r int, v uint32) {
	if c.file != nil {
		c.file.SetReg(r, v)
		return
	}
	c.Mgr.SetReg(r, v)
}

func (c *CPU) operand2Fast(in *Instr) uint32 {
	if in.Imm {
		return uint32(in.Simm13)
	}
	return c.rdReg(in.Rs2)
}

// runFast is the fast-path Run loop.
func (c *CPU) runFast(limit uint64) (yielded bool, err error) {
	for !c.halted {
		if limit > 0 && c.Steps >= limit {
			err := c.guestFault(fault.StepLimit, "step limit %d exceeded", limit)
			c.flushCycles()
			return false, err
		}
		if c.chaos != nil {
			c.chaos.Poll(fault.PointICacheFlush)
		}
		pc := c.pc
		in := c.fetch(pc)
		next := pc + 4
		c.Steps++

		switch in.Op {
		case opCall:
			c.wrReg(regwin.RegO7, pc)
			next = uint32(int64(pc) + int64(in.Disp)*4)
			c.pend += cycles.InstrCall

		case opBranch:
			switch in.Op2 {
			case op2Sethi:
				c.wrReg(in.Rd, in.Imm22<<10)
				c.pend += cycles.Instr
			case op2Bicc:
				if c.cond(in.Cond) {
					next = uint32(int64(pc) + int64(in.Disp)*4)
				}
				c.pend += cycles.InstrBranch
			default:
				err := c.guestFault(fault.IllegalInstruction, "unsupported op2 %d", in.Op2)
				c.flushCycles()
				return false, err
			}

		case opArith:
			if err := c.arithFast(in, &next); err != nil {
				c.flushCycles()
				return false, err
			}

		case opMem:
			if err := c.memOpFast(in); err != nil {
				c.flushCycles()
				return false, err
			}
			c.pend += cycles.InstrMem
		}

		c.pc = next
		if c.yield {
			c.yield = false
			c.flushCycles()
			return true, nil
		}
	}
	c.flushCycles()
	return false, nil
}

// arithFast mirrors arith (cpu.go) on the fast path. The early-return
// cases (jmpl, save, restore, ticc) charge their own cycles; every
// other successful case falls through to the trailing Instr charge,
// exactly as the reference path does.
func (c *CPU) arithFast(in *Instr, next *uint32) error {
	a := c.rdReg(in.Rs1)
	b := c.operand2Fast(in)
	switch in.Op3 {
	case Op3Add, Op3AddCC:
		r := a + b
		if in.Op3 == Op3AddCC {
			c.setFlagsAdd(a, b, r)
		}
		c.wrReg(in.Rd, r)
	case Op3Sub, Op3SubCC:
		r := a - b
		if in.Op3 == Op3SubCC {
			c.setFlagsSub(a, b, r)
		}
		c.wrReg(in.Rd, r)
	case Op3AddX, Op3AddXCC:
		carry := uint32(0)
		if c.icc.c {
			carry = 1
		}
		r := a + b + carry
		if in.Op3 == Op3AddXCC {
			c.setFlagsAdd(a, b+carry, r)
		}
		c.wrReg(in.Rd, r)
	case Op3SubX, Op3SubXCC:
		borrow := uint32(0)
		if c.icc.c {
			borrow = 1
		}
		r := a - b - borrow
		if in.Op3 == Op3SubXCC {
			c.setFlagsSub(a, b+borrow, r)
		}
		c.wrReg(in.Rd, r)
	case Op3And, Op3AndCC:
		r := a & b
		if in.Op3 == Op3AndCC {
			c.setFlagsLogic(r)
		}
		c.wrReg(in.Rd, r)
	case Op3Or, Op3OrCC:
		r := a | b
		if in.Op3 == Op3OrCC {
			c.setFlagsLogic(r)
		}
		c.wrReg(in.Rd, r)
	case Op3Xor, Op3XorCC:
		r := a ^ b
		if in.Op3 == Op3XorCC {
			c.setFlagsLogic(r)
		}
		c.wrReg(in.Rd, r)
	case Op3SMul:
		c.wrReg(in.Rd, uint32(int32(a)*int32(b)))
		c.pend += cycles.InstrMul
	case Op3SDiv:
		if b == 0 {
			return c.guestFault(fault.DivisionByZero, "division by zero")
		}
		c.wrReg(in.Rd, uint32(int32(a)/int32(b)))
		c.pend += cycles.InstrDiv
	case Op3Sll:
		c.wrReg(in.Rd, a<<(b&31))
	case Op3Srl:
		c.wrReg(in.Rd, a>>(b&31))
	case Op3Sra:
		c.wrReg(in.Rd, uint32(int32(a)>>(b&31)))
	case Op3Jmpl:
		c.wrReg(in.Rd, c.pc)
		*next = a + b
		c.pend += cycles.InstrCall
		return nil
	case Op3Save:
		if t := c.Mgr.Running(); t != nil && t.SaveAreaFull() {
			return c.guestFault(fault.InvalidWindowOp, "save past the %d-frame save area", t.SaveAreaFrames())
		}
		// Operands were read in the caller's window; the manager moves
		// the CWP (possibly through an overflow trap) and the result
		// lands in the new window. Cycles flush first so the event the
		// manager reports for Save carries the reference path's stamp.
		c.flushCycles()
		c.Mgr.Save()
		c.wrReg(in.Rd, a+b)
		return nil
	case Op3Restore:
		if t := c.Mgr.Running(); t != nil && t.Depth() == 0 {
			return c.guestFault(fault.InvalidWindowOp, "restore past the outermost frame")
		}
		c.flushCycles()
		c.Mgr.Restore()
		c.wrReg(in.Rd, a+b)
		return nil
	case Op3Ticc:
		return c.trapFast(int(a + b))
	default:
		return c.guestFault(fault.IllegalInstruction, "unsupported op3 %#x", in.Op3)
	}
	c.pend += cycles.Instr
	return nil
}

// trapFast mirrors trap (cpu.go); the TrapEnterExit charge joins the
// batch since nothing observes the counter before the next flush point.
func (c *CPU) trapFast(n int) error {
	switch n {
	case TrapHalt:
		c.halted = true
	case TrapYield:
		c.yield = true
	case TrapPutc:
		c.Console.WriteByte(byte(c.rdReg(regwin.RegO0)))
	default:
		return c.guestFault(fault.IllegalInstruction, "unknown software trap %d", n)
	}
	c.pend += cycles.TrapEnterExit
	return nil
}

// memOpFast mirrors memOp (cpu.go) with devirtualized register access.
func (c *CPU) memOpFast(in *Instr) error {
	addr := c.rdReg(in.Rs1) + c.operand2Fast(in)
	if addr >= MemCeiling {
		return c.guestFault(fault.OutOfRangeMemory, "data access above guest ceiling (addr %#x)", addr)
	}
	switch in.Op3 {
	case Op3Ld:
		if addr&3 != 0 {
			return c.guestFault(fault.MisalignedAccess, "misaligned load (addr %#x)", addr)
		}
		c.wrReg(in.Rd, c.Mem.Load32(addr))
	case Op3Ldub:
		c.wrReg(in.Rd, uint32(c.Mem.Load8(addr)))
	case Op3Ldsb:
		c.wrReg(in.Rd, uint32(int32(int8(c.Mem.Load8(addr)))))
	case Op3Lduh, Op3Ldsh:
		if addr&1 != 0 {
			return c.guestFault(fault.MisalignedAccess, "misaligned halfword load (addr %#x)", addr)
		}
		h := uint32(c.Mem.Load8(addr))<<8 | uint32(c.Mem.Load8(addr+1))
		if in.Op3 == Op3Ldsh {
			h = uint32(int32(int16(h)))
		}
		c.wrReg(in.Rd, h)
	case Op3Sth:
		if addr&1 != 0 {
			return c.guestFault(fault.MisalignedAccess, "misaligned halfword store (addr %#x)", addr)
		}
		v := c.rdReg(in.Rd)
		c.Mem.Store8(addr, byte(v>>8))
		c.Mem.Store8(addr+1, byte(v))
	case Op3St:
		if addr&3 != 0 {
			return c.guestFault(fault.MisalignedAccess, "misaligned store (addr %#x)", addr)
		}
		c.Mem.Store32(addr, c.rdReg(in.Rd))
	case Op3Stb:
		c.Mem.Store8(addr, byte(c.rdReg(in.Rd)))
	default:
		return c.guestFault(fault.IllegalInstruction, "unsupported memory op3 %#x", in.Op3)
	}
	return nil
}
