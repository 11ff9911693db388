// Package cyclicwin is a library reproduction of Hidaka, Koike and
// Tanaka, "Multiple Threads in Cyclic Register Windows" (ISCA 1993): a
// SPARC-style cyclic register-window processor model, the paper's three
// window-management schemes (NS, SNP, SP) implemented as trap handlers,
// a non-preemptive multi-threading kernel with FIFO and working-set
// scheduling, blocking byte streams, a machine-code level ISA with an
// assembler, and the multi-threaded spell-checker workload the paper
// evaluates.
//
// The quickest way in:
//
//	m := cyclicwin.NewMachine(cyclicwin.SP, 8)
//	m.Spawn("worker", func(e *cyclicwin.Env) {
//	    e.Call(func(e *cyclicwin.Env) { e.Work(100) }) // a procedure call through the windows
//	})
//	m.Run()
//	fmt.Println(m.Counters().Switches, "context switches")
//
// Deeper layers are exposed through the internal packages re-exported
// here: see Machine, Stream, and the spell and assembly helpers.
package cyclicwin

import (
	"cyclicwin/internal/asm"
	"cyclicwin/internal/core"
	"cyclicwin/internal/cycles"
	"cyclicwin/internal/fault"
	"cyclicwin/internal/isa"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/obs"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/spell"
	"cyclicwin/internal/stats"
	"cyclicwin/internal/stream"
)

// Scheme selects the window-management algorithm.
type Scheme = core.Scheme

// The three schemes evaluated in the paper (Section 4.5), plus the
// infinite-window reference model used for differential testing.
const (
	// NS is the conventional non-sharing scheme: all active windows are
	// flushed at every context switch.
	NS = core.SchemeNS
	// SNP shares windows among threads with a single global reserved
	// window; the stack-top out registers move through the TCB on every
	// switch.
	SNP = core.SchemeSNP
	// SP shares windows with a private reserved window per thread — the
	// paper's best scheme.
	SP = core.SchemeSP
	// Reference is the infinite-window oracle (no traps, no spills).
	Reference = core.SchemeReference
)

// Schemes lists NS, SNP and SP in the paper's order.
var Schemes = core.Schemes

// Policy selects how awoken threads are enqueued.
type Policy = sched.Policy

const (
	// FIFO is plain first-in-first-out scheduling.
	FIFO = sched.FIFO
	// WorkingSet applies the register-window working-set concept of
	// Section 4.6: awoken threads whose windows are still resident jump
	// to the front of the ready queue.
	WorkingSet = sched.WorkingSet
)

// Env is the API guest thread bodies program against; every Call/return
// pair executes a real save/restore on the shared window file.
type Env = sched.Env

// TCB is a guest thread's control block.
type TCB = sched.TCB

// Stream is a bounded FIFO byte stream with blocking reads and writes.
type Stream = stream.Stream

// Counters are the machine-wide event counts (switches, traps, window
// transfers, save/restore instructions).
type Counters = stats.Counters

// Options tune a Machine beyond scheme and window count.
type Options struct {
	// Policy is the scheduling policy (default FIFO).
	Policy Policy
	// SearchAlloc enables the Section 4.2 free-window search in the SNP
	// scheme.
	SearchAlloc bool
	// TrapTransfer is the number of windows moved per overflow trap
	// (default 1, the Tamir/Sequin optimum the paper adopts).
	TrapTransfer int
	// HWAssist switches to the multi-threaded-architecture cost model
	// of the paper's Conclusion 3: the same algorithms with hardware
	// trap dispatch and switching, so software bookkeeping costs a few
	// cycles while window transfers keep their memory cost.
	HWAssist bool
	// TraceLimit, when positive, attaches an event recorder to the
	// window manager keeping the most recent TraceLimit events; read
	// them with Machine.Trace.
	TraceLimit int
	// Activity, when non-nil, records the Section 5 window-activity
	// quantities during the run.
	Activity *ActivityRecorder
}

// ActivityRecorder captures per-burst window activity (Section 5).
type ActivityRecorder = stats.ActivityRecorder

// Trace is the event recorder attached with Options.TraceLimit.
type Trace = obs.Tracer

// GuestFault is a typed guest-triggerable failure raised by the
// machine-code interpreter (misaligned access, out-of-range memory,
// invalid window op, illegal instruction, ...), carrying thread, PC,
// CWP and cycle context. Run returns it; match with errors.As.
type GuestFault = fault.GuestFault

// DeadlockError reports a stuck run: blocked threads with an empty
// ready queue, with per-thread states and stream occupancies.
type DeadlockError = fault.DeadlockError

// BudgetError reports the SetMaxCycles watchdog firing.
type BudgetError = fault.BudgetError

// Machine bundles a window manager, a memory, and a thread kernel: the
// full simulated processor the paper's experiments run on.
type Machine struct {
	manager core.Manager
	kernel  *sched.Kernel
	memory  *mem.Memory
	tracer  *obs.Tracer
}

// NewMachine builds a machine with the given scheme and window count
// (2..256) and default options.
func NewMachine(scheme Scheme, windows int) *Machine {
	return NewMachineOptions(scheme, windows, Options{})
}

// NewMachineOptions builds a machine with explicit options.
func NewMachineOptions(scheme Scheme, windows int, o Options) *Machine {
	memory := mem.New()
	mgr := core.New(scheme, core.Config{
		Windows:      windows,
		Memory:       memory,
		SearchAlloc:  o.SearchAlloc,
		TrapTransfer: o.TrapTransfer,
		HWAssist:     o.HWAssist,
		Activity:     o.Activity,
	})
	m := &Machine{manager: mgr, memory: memory, kernel: sched.NewKernel(mgr, o.Policy)}
	if o.TraceLimit > 0 {
		m.tracer = obs.NewTracer(o.TraceLimit)
		m.tracer.Attach(mgr)
	}
	return m
}

// Trace returns the event recorder, or nil when tracing was not enabled
// with Options.TraceLimit.
func (m *Machine) Trace() *Trace { return m.tracer }

// Spawn creates a guest thread; threads start when Run is called, in
// spawn order.
func (m *Machine) Spawn(name string, body func(*Env)) *TCB {
	return m.kernel.Spawn(name, body)
}

// NewStream creates a blocking FIFO stream with the given buffer
// capacity, connecting threads of this machine. The capacity must be
// positive.
func (m *Machine) NewStream(name string, capacity int) (*Stream, error) {
	return stream.New(m.kernel, name, capacity)
}

// Run dispatches threads until all have finished. It returns nil on
// clean completion; a failing guest (a typed GuestFault from machine
// code, a stream misuse, a panicking body) surfaces as its error, a
// stuck program as a *DeadlockError naming every thread and stream,
// and an exhausted cycle budget (SetMaxCycles) as a *BudgetError.
func (m *Machine) Run() error { return m.kernel.Run() }

// SetMaxCycles arms the watchdog: the run fails with a *BudgetError
// once the simulated clock passes n cycles (0 disables it).
func (m *Machine) SetMaxCycles(n uint64) { m.kernel.SetMaxCycles(n) }

// Wake moves a blocked thread to the ready queue under the machine's
// scheduling policy.
func (m *Machine) Wake(t *TCB) { m.kernel.Wake(t) }

// SetQuantum enables preemptive time-slicing (an extension beyond the
// paper's non-preemptive evaluation); 0 disables it.
func (m *Machine) SetQuantum(cycles uint64) { m.kernel.SetQuantum(cycles) }

// Counters returns the event counts accumulated so far.
func (m *Machine) Counters() *Counters { return m.manager.Counters() }

// Cycles returns the simulated execution time so far, in cycles.
func (m *Machine) Cycles() uint64 { return m.manager.Cycles().Total() }

// Resident reports whether any of t's windows are still in the register
// file (the working-set predicate).
func (m *Machine) Resident(t *TCB) bool { return m.manager.Resident(t.Core) }

// Kernel exposes the scheduler for advanced use.
func (m *Machine) Kernel() *sched.Kernel { return m.kernel }

// Manager exposes the window manager for advanced use.
func (m *Machine) Manager() core.Manager { return m.manager }

// SpellConfig parameterises the paper's spell-checker workload.
type SpellConfig = spell.Config

// SpellPipeline is the running seven-thread spell checker.
type SpellPipeline = spell.Pipeline

// NewSpellPipeline wires the paper's workload (Figure 10) onto the
// machine; Run executes it, after which Pipeline.Misspelled holds the
// report. It returns an error when a stream size (M or N) is not
// positive.
func (m *Machine) NewSpellPipeline(cfg SpellConfig) (*SpellPipeline, error) {
	return spell.New(m.kernel, cfg)
}

// SpellCheckText runs the single-threaded reference spell checker; the
// pipeline's output is always identical to it.
func SpellCheckText(src, mainDict, forbiddenDict []byte) []string {
	return spell.CheckText(src, mainDict, forbiddenDict)
}

// Assemble translates SPARC-subset assembly, placing the first
// instruction at origin.
func Assemble(src string, origin uint32) (*asm.Program, error) {
	return asm.Assemble(src, origin)
}

// Disassemble renders one instruction word at addr.
func Disassemble(word, addr uint32) string { return asm.Disassemble(word, addr) }

// LoadProgram copies an assembled program into the machine's memory.
func (m *Machine) LoadProgram(p *asm.Program) { p.Load(m.memory) }

// SpawnProgram creates a guest thread executing machine code at entry
// with the given initial stack pointer. Console output (the putc trap)
// is appended to console when non-nil.
func (m *Machine) SpawnProgram(name string, entry, sp uint32, console *[]byte) *TCB {
	return m.kernel.Spawn(name, isa.ThreadBody(m.manager, m.memory, entry, sp, 0, console))
}

// RunProgram loads p and executes it on a fresh single thread until it
// halts, returning the CPU for register inspection.
func (m *Machine) RunProgram(p *asm.Program, entry string, limit uint64) (*isa.CPU, error) {
	p.Load(m.memory)
	mach := &isa.Machine{Mgr: m.manager, Mem: m.memory}
	return mach.RunProgram(p.Entry(entry), limit)
}

// CycleModel exposes the calibrated cost constants (Table 2) for
// documentation and analysis.
func CycleModel() map[string]uint64 {
	return map[string]uint64{
		"SaveWindow":                cycles.SaveWindow,
		"RestoreWindow":             cycles.RestoreWindow,
		"OverflowTrap":              cycles.OverflowTrap,
		"UnderflowTrapConventional": cycles.UnderflowTrapConventional,
		"UnderflowTrapInPlace":      cycles.UnderflowTrapInPlace,
		"SwitchBaseNS":              cycles.SwitchBaseNS,
		"SwitchBaseSNP":             cycles.SwitchBaseSNP,
		"SwitchBaseSP":              cycles.SwitchBaseSP,
	}
}
