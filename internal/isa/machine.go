package isa

import (
	"cyclicwin/internal/core"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/regwin"
	"cyclicwin/internal/sched"
)

// Machine bundles a window manager and a memory into a runnable
// single-program machine, the ISA-level counterpart of the guest
// runtime.
type Machine struct {
	Mgr core.Manager
	Mem *mem.Memory
}

// NewMachine builds a machine with the given scheme and window count.
func NewMachine(scheme core.Scheme, windows int) *Machine {
	m := mem.New()
	return &Machine{Mgr: core.New(scheme, core.Config{Windows: windows, Memory: m}), Mem: m}
}

// guestStackTop is where single-program and per-thread guest stacks are
// laid out (well below the window save areas).
const guestStackTop = 0x0800000

// RunProgram executes machine code starting at entry on a fresh thread
// until it halts, with the stack pointer initialised below the window
// save areas. It returns the CPU for register inspection.
func (m *Machine) RunProgram(entry uint32, limit uint64) (*CPU, error) {
	t := m.Mgr.NewThread(0, "main")
	m.Mgr.Switch(t)
	m.Mgr.SetReg(regwin.RegSP, guestStackTop)
	cpu := NewCPU(m.Mgr, m.Mem)
	cpu.SetPC(entry)
	for {
		yielded, err := cpu.Run(limit)
		if err != nil {
			return cpu, err
		}
		if !yielded {
			return cpu, nil
		}
		// A lone program that yields simply continues.
	}
}

// ThreadBody adapts a machine-code program to a sched guest thread: the
// code runs on its own CPU (program counter and condition codes) while
// sharing the window file and memory with every other thread; the yield
// trap hands the processor to the scheduler and the halt trap ends the
// thread. Console output is appended to console when non-nil.
func ThreadBody(mgr core.Manager, memory *mem.Memory, entry, sp uint32, limit uint64, console *[]byte) func(*sched.Env) {
	return func(e *sched.Env) {
		cpu := NewCPU(mgr, memory)
		cpu.SetPC(entry)
		mgr.SetReg(regwin.RegSP, sp)
		for {
			yielded, err := cpu.Run(limit)
			if console != nil && cpu.Console.Len() > 0 {
				*console = append(*console, cpu.Console.Bytes()...)
				cpu.Console.Reset()
			}
			if err != nil {
				// A guest fault fails this thread with its structured
				// error; Kernel.Run surfaces it instead of a panic.
				e.Fail(err)
			}
			if !yielded {
				return
			}
			e.Yield()
		}
	}
}
