package harness

import (
	"fmt"
	"io"

	"cyclicwin/internal/core"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/stats"
)

// This file holds the experiments that go beyond the paper's published
// tables and figures: the Section 5 window-activity measurement, the
// context-switch tail-latency comparison (quantifying the paper's
// hard-real-time remark about the NS worst case), and the trap-transfer
// depth sweep re-examining Tamir and Sequin's one-window result on this
// machine.

// ActivityRow characterises one behaviour in the paper's Section 5
// vocabulary.
type ActivityRow struct {
	Behavior Behavior
	// PerThread is the mean window activity per scheduling burst.
	PerThread float64
	// Total is the mean total window activity over periods of
	// activityPeriod bursts.
	Total float64
	// Concurrency is the mean number of distinct threads scheduled per
	// period.
	Concurrency float64
	// Switches is the run's context-switch count (granularity).
	Switches uint64
}

// activityPeriod is the measurement period, in scheduling bursts, for
// total window activity and concurrency. One period spans roughly one
// scheduling round of the seven threads.
const activityPeriod = 14

// RunActivity measures the Section 5 quantities for all six behaviours.
// They are scheme-independent (measured here under SP with 32 windows,
// where nothing spills), and explain the figures: a behaviour's total
// window activity is the window count where its sharing-scheme curves
// saturate.
func RunActivity(sz Sizes) []ActivityRow {
	var rows []ActivityRow
	for _, b := range Behaviors {
		rec := &stats.ActivityRecorder{}
		r := mustSpell(SpellOpts{
			Config: core.Config{Windows: 32, Activity: rec},
			Scheme: core.SchemeSP, Policy: sched.FIFO, Behavior: b, Sizes: sz,
		})
		rows = append(rows, ActivityRow{
			Behavior:    b,
			PerThread:   rec.MeanPerThread(),
			Total:       rec.TotalActivity(activityPeriod),
			Concurrency: rec.Concurrency(activityPeriod),
			Switches:    r.Counters.Switches,
		})
	}
	return rows
}

// RenderActivity writes the Section 5 characterisation.
func RenderActivity(w io.Writer, rows []ActivityRow) {
	fmt.Fprintf(w, "Window activity (Section 5 quantities, periods of %d bursts)\n", activityPeriod)
	fmt.Fprintf(w, "%-12s %10s %14s %14s %12s\n",
		"behavior", "switches", "activity/thr", "total activity", "concurrency")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10d %14.2f %14.2f %12.2f\n",
			r.Behavior.Name, r.Switches, r.PerThread, r.Total, r.Concurrency)
	}
}

// TailRow is the context-switch latency distribution of one scheme.
type TailRow struct {
	Scheme  core.Scheme
	Windows int
	Mean    float64
	P50     uint64
	P99     uint64
	Max     uint64
}

// RunTail measures the switch-cost distribution of every scheme on the
// high-medium behaviour. The paper notes the NS worst case — all
// windows saved at one switch — is "an undesirable characteristic in
// hard real time systems"; this experiment puts numbers on it.
func RunTail(sz Sizes, windows int) []TailRow {
	b, _ := BehaviorByName("high-medium")
	var rows []TailRow
	for _, s := range core.Schemes {
		r := CellSpec{Scheme: s, Windows: windows, Policy: sched.FIFO, Behavior: b, Sizes: sz}.Run()
		d := &r.Counters.SwitchCost
		rows = append(rows, TailRow{
			Scheme:  s,
			Windows: windows,
			Mean:    d.Mean(),
			P50:     d.Quantile(0.5),
			P99:     d.Quantile(0.99),
			Max:     d.Max(),
		})
	}
	return rows
}

// RenderTail writes the latency table.
func RenderTail(w io.Writer, rows []TailRow) {
	if len(rows) > 0 {
		fmt.Fprintf(w, "Context-switch latency distribution (high-medium, %d windows, cycles)\n", rows[0].Windows)
	}
	fmt.Fprintf(w, "%-7s %10s %8s %8s %8s\n", "scheme", "mean", "p50", "p99", "max")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7v %10.1f %8d %8d %8d\n", r.Scheme, r.Mean, r.P50, r.P99, r.Max)
	}
}

// HWRow compares the software implementation (SPARC trap handlers) with
// the projected multi-threaded-architecture implementation of the
// paper's Conclusion 3, where the same algorithms run in hardware and
// only window transfers keep their memory cost.
type HWRow struct {
	Scheme    core.Scheme
	Windows   int
	Software  uint64
	Hardware  uint64
	HWAvgSw   float64 // average switch cost under hardware assist
	SpeedupPc float64 // percentage improvement
}

// RunHWProjection measures both cost models on the fine-granularity
// high-concurrency behaviour, where switching dominates.
func RunHWProjection(sz Sizes, windows []int) []HWRow {
	b, _ := BehaviorByName("high-fine")
	var rows []HWRow
	for _, s := range core.Schemes {
		for _, n := range windows {
			o := SpellOpts{Config: core.Config{Windows: n}, Scheme: s, Policy: sched.FIFO, Behavior: b, Sizes: sz}
			soft := mustSpell(o)
			o.Config.HWAssist = true
			hard := mustSpell(o)
			rows = append(rows, HWRow{
				Scheme:    s,
				Windows:   n,
				Software:  soft.Cycles,
				Hardware:  hard.Cycles,
				HWAvgSw:   hard.Counters.AvgSwitchCycles(),
				SpeedupPc: 100 * (1 - float64(hard.Cycles)/float64(soft.Cycles)),
			})
		}
	}
	return rows
}

// RenderHWProjection writes the comparison.
func RenderHWProjection(w io.Writer, rows []HWRow) {
	fmt.Fprintln(w, "Multi-threaded-architecture projection (Conclusion 3, high-fine)")
	fmt.Fprintf(w, "%-7s %8s %14s %14s %12s %10s\n",
		"scheme", "windows", "software", "hardware", "hw cyc/sw", "gain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7v %8d %14d %14d %12.1f %9.1f%%\n",
			r.Scheme, r.Windows, r.Software, r.Hardware, r.HWAvgSw, r.SpeedupPc)
	}
}

// TransferRow is one point of the trap-transfer depth sweep.
type TransferRow struct {
	Scheme   core.Scheme
	Transfer int
	Cycles   uint64
	Traps    uint64
	Moved    uint64 // windows moved by traps
}

// RunTransferSweep re-examines Tamir and Sequin's result on this
// machine: how does the number of windows moved per overflow trap
// affect total time on the paper's workload?
func RunTransferSweep(sz Sizes, windows int, depths []int) []TransferRow {
	b, _ := BehaviorByName("high-fine")
	var rows []TransferRow
	for _, s := range core.Schemes {
		for _, k := range depths {
			r := mustSpell(SpellOpts{
				Config: core.Config{Windows: windows, TrapTransfer: k},
				Scheme: s, Policy: sched.FIFO, Behavior: b, Sizes: sz,
			})
			rows = append(rows, TransferRow{
				Scheme:   s,
				Transfer: k,
				Cycles:   r.Cycles,
				Traps:    r.Counters.OverflowTraps + r.Counters.UnderflowTraps,
				Moved:    r.Counters.TrapSaves + r.Counters.TrapRestores,
			})
		}
	}
	return rows
}

// RenderTransferSweep writes the sweep.
func RenderTransferSweep(w io.Writer, rows []TransferRow, windows int) {
	fmt.Fprintf(w, "Windows transferred per overflow trap (high-fine, %d windows)\n", windows)
	fmt.Fprintf(w, "%-7s %9s %14s %10s %10s\n", "scheme", "transfer", "cycles", "traps", "moved")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7v %9d %14d %10d %10d\n", r.Scheme, r.Transfer, r.Cycles, r.Traps, r.Moved)
	}
}
