// Package fault defines the simulator's structured failure model: a
// typed taxonomy of guest-triggerable faults (GuestFault), watchdog and
// deadlock diagnostics (BudgetError, DeadlockError), and a seeded
// deterministic chaos injector (Injector) that perturbs execution at
// defined points.
//
// The design rule the package enforces is that nothing a guest program
// can do — bad instruction words, wild memory accesses, undersized
// stream buffers, runaway loops — may panic the simulator. Every such
// condition becomes a value of this package carrying enough context
// (thread, PC, CWP, cycle, per-thread states, stream occupancies) to
// debug the guest without re-running it.
package fault

import (
	"fmt"
	"strings"
)

// Kind classifies a guest-triggerable fault.
type Kind int

const (
	// MisalignedAccess is a load or store whose address violates the
	// operand's alignment.
	MisalignedAccess Kind = iota
	// OutOfRangeMemory is a data access above the guest-addressable
	// ceiling (the window save areas live there).
	OutOfRangeMemory
	// InvalidWindowOp is an impossible window operation, such as a
	// restore past the outermost frame.
	InvalidWindowOp
	// IllegalInstruction is an undecodable or unsupported instruction
	// word, or an unknown software trap.
	IllegalInstruction
	// DivisionByZero is an integer division with a zero divisor.
	DivisionByZero
	// StepLimit is the per-Run instruction-count watchdog.
	StepLimit
)

// String returns the taxonomy name used in rendered faults.
func (k Kind) String() string {
	switch k {
	case MisalignedAccess:
		return "misaligned access"
	case OutOfRangeMemory:
		return "out-of-range memory"
	case InvalidWindowOp:
		return "invalid window op"
	case IllegalInstruction:
		return "illegal instruction"
	case DivisionByZero:
		return "division by zero"
	case StepLimit:
		return "step limit"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalText renders the kind as its taxonomy name in JSON payloads.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// GuestFault is a structured guest-triggerable failure raised by the
// interpreter (through isa's one guestFault helper) or by sched's
// Env.Call, which refuses a save past the thread's save area.
type GuestFault struct {
	Kind   Kind   `json:"kind"`
	Thread string `json:"thread,omitempty"` // guest thread name, "" when unknown
	PC     uint32 `json:"pc"`
	CWP    int    `json:"cwp"`   // current window slot, -1 when unknown
	Cycle  uint64 `json:"cycle"` // simulated clock at the fault
	Detail string `json:"detail"`
}

// Error renders the fault with every known context field.
func (f *GuestFault) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guest fault [%s]: %s at pc %#x", f.Kind, f.Detail, f.PC)
	var ctx []string
	if f.Thread != "" {
		ctx = append(ctx, "thread "+f.Thread)
	}
	if f.CWP >= 0 {
		ctx = append(ctx, fmt.Sprintf("cwp %d", f.CWP))
	}
	ctx = append(ctx, fmt.Sprintf("cycle %d", f.Cycle))
	b.WriteString(" (" + strings.Join(ctx, ", ") + ")")
	return b.String()
}
