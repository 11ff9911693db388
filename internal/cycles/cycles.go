// Package cycles defines the cycle-cost model of the simulated processor
// and the cycle counter used by every experiment.
//
// The constants are calibrated against Table 2 of Hidaka, Koike and
// Tanaka, "Multiple Threads in Cyclic Register Windows" (ISCA 1993),
// which reports bus-level cycle measurements on the Fujitsu S-20 SPARC
// of the PIE64 machine. The paper gives ranges (e.g. "145 - 149" for an
// NS context switch transferring one save and one restore); the model is
// deterministic, so each constant is chosen so that composed totals land
// inside the published range.
package cycles

// Window-transfer and trap costs, in processor cycles.
//
// A "window" here is the 16 registers (8 in + 8 local) that the trap
// handlers move between the register file and the memory save area,
// using double-word loads/stores plus address arithmetic.
const (
	// SaveWindow is the cost of spilling one window (16 registers) to
	// memory inside a context-switch routine: 8 store-doubles plus
	// address computation. Table 2 NS rows grow by 36 cycles per
	// additional window saved.
	SaveWindow = 36

	// RestoreWindow is the cost of filling one window from memory inside
	// a context-switch routine. Table 2 SNP rows grow by 29 cycles when
	// one restore is added (142-147 vs 113-118).
	RestoreWindow = 29

	// TrapEnterExit is the overhead of entering and leaving a window
	// trap handler (pipeline flush, PSR/WIM reads, return). The paper
	// notes this is exactly what the NS scheme avoids by flushing at
	// switch time instead of trapping later.
	TrapEnterExit = 20

	// WIMUpdate is the cost of recomputing and writing the Window
	// Invalid Mask inside a handler.
	WIMUpdate = 10

	// InRegisterCopy is the extra work of the proposed underflow
	// handler: copying the callee's eight live in registers into its out
	// registers before the caller's window is restored in place
	// (Section 3.2).
	InRegisterCopy = 8

	// RestoreEmulation is the cost of interpreting and emulating the
	// trapped restore instruction (its optional add function) in the
	// proposed underflow handler (Section 4.3).
	RestoreEmulation = 6

	// OutRegisterSwap is the cost of saving the suspended thread's
	// stack-top out registers and loading the scheduled thread's, which
	// the SNP scheme must do on every context switch because the out
	// registers of the stack-top live in the shared reserved window
	// (Section 4.1).
	OutRegisterSwap = 20
)

// Per-scheme context-switch base overheads (scheduling, PC/PSR swap, WIM
// calculation), before any window transfer. Composed totals reproduce
// Table 2:
//
//	NS  k saves + 1 restore: 80 + 36k + 29        -> 145, 181, 217, ... (paper: 145-149, 181-185, ...)
//	SNP + s*49 + r*29 on base 113                 -> 113, 142, 162, 191 (paper: 113-118, 142-147, 162-171, 187-196)
//	SP  + s*44 + r*43 on base 93                  -> 93, 136, 180, 224  (paper: 93-98, 136-141, 180-197, 220-237)
const (
	// SwitchBaseNS is the fixed software overhead of an NS context
	// switch (scheduler, WIM reset, PSR/PC swap) excluding transfers.
	SwitchBaseNS = 80

	// SwitchBaseSNP includes the mandatory out-register swap through the
	// shared reserved window.
	SwitchBaseSNP = 93 + OutRegisterSwap // 113

	// SwitchBaseSP is the cheapest base: out registers and program
	// counters stay in the private reserved window.
	SwitchBaseSP = 93

	// SwitchSaveNS is the incremental cost per window flushed by the NS
	// switch routine.
	SwitchSaveNS = SaveWindow // 36

	// SwitchRestoreNS is the cost of restoring the scheduled thread's
	// stack-top window, which NS always performs.
	SwitchRestoreNS = RestoreWindow // 29

	// SwitchSaveSNP is the incremental cost per window spilled by the
	// SNP switch routine: the transfer itself plus making the freed slot
	// the new reserved window (extra WIM pass and bookkeeping).
	SwitchSaveSNP = SaveWindow + 13 // 49

	// SwitchRestoreSNP is the incremental cost per window restored by
	// the SNP switch routine.
	SwitchRestoreSNP = RestoreWindow // 29

	// SwitchSaveSP is the incremental cost per window spilled by the SP
	// switch routine (transfer plus PRW relocation).
	SwitchSaveSP = SaveWindow + 8 // 44

	// SwitchRestoreSP is the incremental cost per window restored by the
	// SP switch routine, including re-establishing the PRW contents
	// (out registers and program counters of the scheduled thread).
	SwitchRestoreSP = RestoreWindow + 14 // 43
)

// Hardware-assisted costs, modelling the paper's third conclusion: "the
// proposed algorithm is also applicable to multi-threaded architecture
// ... [where] there is still software overhead in the best case, it
// will be reduced to zero or a few cycles". Window transfers keep their
// memory-traffic costs; only the software bookkeeping collapses.
const (
	// HWSwitchBase replaces the per-scheme software switch overhead
	// (scheduler, WIM computation, PC/PSR swap done by hardware).
	HWSwitchBase = 4

	// HWTrapEnterExit replaces TrapEnterExit when trap dispatch is a
	// hardware state-machine rather than a software handler.
	HWTrapEnterExit = 2

	// HWWIMUpdate replaces WIMUpdate.
	HWWIMUpdate = 1
)

// Multi-core migration costs. Migrating a thread to another core's
// window file is priced as a forced flush on the source core: the
// software handoff overhead below plus SaveWindow per resident window
// flushed (the destination core then refills on demand through the
// ordinary switch and trap paths).
const (
	// MigrationBase is the software overhead of descheduling a thread on
	// its source core and handing it to another core's run queue, before
	// any window traffic.
	MigrationBase = 64

	// HWMigrationBase replaces MigrationBase when the hand-off is a
	// hardware context-unit operation (Config.HWAssist).
	HWMigrationBase = 12
)

// Trap totals derived from the components above.
const (
	// OverflowTrap is the full cost of a window-overflow trap with the
	// conventional (and shared) handler: trap entry/exit, one window
	// spilled, WIM moved.
	OverflowTrap = TrapEnterExit + SaveWindow + WIMUpdate // 66

	// UnderflowTrapConventional restores the caller's window into its
	// original slot and moves the WIM (basic algorithm, Section 2).
	UnderflowTrapConventional = TrapEnterExit + RestoreWindow + WIMUpdate // 59

	// UnderflowTrapInPlace is the proposed handler (Section 3.2): the
	// in registers are copied to the out registers, the caller's window
	// is restored in place, and the trapped restore instruction is
	// emulated. The WIM does not move, so no WIMUpdate is charged.
	UnderflowTrapInPlace = TrapEnterExit + RestoreWindow + InRegisterCopy + RestoreEmulation // 63
)

// Instruction-level costs used by the ISA interpreter and the guest
// runtime.
const (
	Instr       = 1 // plain ALU instruction, save/restore without trap
	InstrMem    = 2 // load/store
	InstrBranch = 1 // taken or untaken branch (delay slot modelled as Instr)
	InstrCall   = 1 // call/jmpl

	// InstrMul and InstrDiv are the extra cycles of the iterative
	// multiply and divide units of the modelled S-20 SPARC, charged on
	// top of the base Instr cycle (so SMUL costs 1+4 and SDIV 1+12
	// in total). See DESIGN.md, "Cycle model".
	InstrMul = 4
	InstrDiv = 12
)

// Counter accumulates simulated cycles.
type Counter struct {
	total uint64
}

// Add charges n cycles.
func (c *Counter) Add(n uint64) { c.total += n }

// Total reports the cycles accumulated so far.
func (c *Counter) Total() uint64 { return c.total }
