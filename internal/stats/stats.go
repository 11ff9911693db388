// Package stats collects the measurements the paper reports: context
// switches, executed save/restore instructions, window traps, windows
// transferred, and cycles, both globally and per thread.
package stats

// Counters aggregates machine-wide event counts for one run.
type Counters struct {
	// Switches counts context switches performed by the manager.
	Switches uint64
	// SwitchSaves and SwitchRestores count windows transferred inside
	// context-switch routines (the "save"/"restore" columns of Table 2).
	SwitchSaves    uint64
	SwitchRestores uint64
	// SwitchCycles accumulates the cycles spent in context-switch
	// routines, so the average switch time of Figure 12 is
	// SwitchCycles/Switches.
	SwitchCycles uint64
	// ZeroTransferSwitches counts best-case switches that moved no
	// window (possible only in the sharing schemes).
	ZeroTransferSwitches uint64

	// Saves and Restores count executed save and restore instructions
	// (procedure calls and returns). Table 1 reports the dynamic save
	// count; Figure 13 divides traps by Saves+Restores.
	Saves    uint64
	Restores uint64

	// OverflowTraps and UnderflowTraps count window traps taken while
	// threads run (not transfers inside context switches).
	OverflowTraps  uint64
	UnderflowTraps uint64
	// TrapSaves and TrapRestores count windows moved by trap handlers.
	TrapSaves    uint64
	TrapRestores uint64

	// Migrations counts forced evictions that moved a thread to another
	// core's window file; MigrationSaves the windows flushed by them.
	// Zero on single-core configurations.
	Migrations     uint64
	MigrationSaves uint64
	// Preemptions counts the quantum-expiry preemptions the scheduler
	// imposed on threads running on this core. Zero under the paper's
	// non-preemptive scheduling.
	Preemptions uint64

	// SwitchCost is the exact distribution of individual context-switch
	// costs; its Max is the worst case the paper calls "terrible ... an
	// undesirable characteristic in hard real time systems" for NS.
	SwitchCost Distribution
}

// Add accumulates o into c: scalar counters are summed and the
// switch-cost histograms merged, so per-cell counters aggregate into
// per-experiment (or fleet-wide) totals.
func (c *Counters) Add(o *Counters) {
	if o == nil {
		return
	}
	c.Switches += o.Switches
	c.SwitchSaves += o.SwitchSaves
	c.SwitchRestores += o.SwitchRestores
	c.SwitchCycles += o.SwitchCycles
	c.ZeroTransferSwitches += o.ZeroTransferSwitches
	c.Saves += o.Saves
	c.Restores += o.Restores
	c.OverflowTraps += o.OverflowTraps
	c.UnderflowTraps += o.UnderflowTraps
	c.TrapSaves += o.TrapSaves
	c.TrapRestores += o.TrapRestores
	c.Migrations += o.Migrations
	c.MigrationSaves += o.MigrationSaves
	c.Preemptions += o.Preemptions
	c.SwitchCost.Merge(&o.SwitchCost)
}

// Clone returns an independent copy of c (the SwitchCost histogram's
// value and count slices are not shared).
func (c *Counters) Clone() Counters {
	out := *c
	out.SwitchCost = c.SwitchCost.Clone()
	return out
}

// TrapProbability returns (overflow+underflow traps) divided by the
// number of executed save and restore instructions, as plotted in
// Figure 13. It returns 0 when no window instructions ran.
func (c *Counters) TrapProbability() float64 {
	den := c.Saves + c.Restores
	if den == 0 {
		return 0
	}
	return float64(c.OverflowTraps+c.UnderflowTraps) / float64(den)
}

// AvgSwitchCycles returns the mean context-switch cost in cycles
// (Figure 12). It returns 0 when no switch happened.
func (c *Counters) AvgSwitchCycles() float64 {
	if c.Switches == 0 {
		return 0
	}
	return float64(c.SwitchCycles) / float64(c.Switches)
}

// ThreadCounters holds the per-thread numbers of Table 1.
type ThreadCounters struct {
	// Suspensions counts how many times the thread was context-switched
	// out (the paper's per-thread "number of context switches").
	Suspensions uint64
	// Saves counts save instructions executed by the thread.
	Saves uint64
	// Restores counts restore instructions executed by the thread.
	Restores uint64
}
