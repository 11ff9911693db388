package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cyclicwin/internal/core"
	"cyclicwin/internal/cycles"
	"cyclicwin/internal/sched"
)

// ThreadNames are the paper's thread labels in order T1..T7.
var ThreadNames = [7]string{
	"T1 (delatex)", "T2 (spell1)", "T3 (spell2)", "T4 (input)",
	"T5 (output)", "T6 (dict1)", "T7 (dict2)",
}

// Table1 characterises the program behaviours: per-thread context-switch
// counts under FIFO scheduling (which are independent of the scheme and
// the window count) and the dynamic count of save instructions (which is
// independent of everything but the program).
type Table1 struct {
	Sizes       Sizes
	Suspensions map[string][7]uint64 // by behaviour name
	Saves       map[string]uint64    // per thread name (constant across behaviours)
	TotalSaves  uint64
}

// RunTable1 measures all six behaviours. The scheme used is SP with 32
// windows; Table 1's numbers are scheme-independent, which
// TestTable1SchemeIndependence pins.
func RunTable1(sz Sizes) Table1 {
	t1 := Table1{Sizes: sz, Suspensions: map[string][7]uint64{}, Saves: map[string]uint64{}}
	for _, b := range Behaviors {
		r := CellSpec{Scheme: core.SchemeSP, Windows: 32, Policy: sched.FIFO, Behavior: b, Sizes: sz}.Run()
		t1.Suspensions[b.Name] = r.ThreadSuspensions
		t1.TotalSaves = r.Counters.Saves
	}
	return t1
}

// Render writes the table in the paper's layout.
func (t Table1) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 1: Program behavior (draft %d bytes, dictionaries %d bytes)\n", t.Sizes.Draft, t.Sizes.Dict)
	fmt.Fprintf(w, "Number of context switches (FIFO scheduling)\n")
	fmt.Fprintf(w, "%-14s", "Concurrency")
	for range Behaviors[:3] {
		fmt.Fprintf(w, "%10s", "high")
	}
	for range Behaviors[3:] {
		fmt.Fprintf(w, "%10s", "low")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s", "Granularity")
	for _, b := range Behaviors {
		fmt.Fprintf(w, "%10s", b.Granularity)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s", "M / N")
	for _, b := range Behaviors {
		fmt.Fprintf(w, "%10s", fmt.Sprintf("%d/%d", b.M, b.N))
	}
	fmt.Fprintln(w)
	var totals [6]uint64
	for i := 0; i < 7; i++ {
		fmt.Fprintf(w, "%-14s", ThreadNames[i])
		for j, b := range Behaviors {
			v := t.Suspensions[b.Name][i]
			totals[j] += v
			fmt.Fprintf(w, "%10d", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "Total")
	for _, v := range totals {
		fmt.Fprintf(w, "%10d", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Dynamic count of save instructions (all behaviors): %d\n", t.TotalSaves)
}

// Table2Row is one measured context-switch situation.
type Table2Row struct {
	Scheme   core.Scheme
	Saves    int
	Restores int
	Cycles   uint64
	PaperLo  uint64 // the paper's measured range on the S-20
	PaperHi  uint64
}

// RunTable2 constructs each transfer situation of Table 2 and measures
// the charged switch cost.
func RunTable2() []Table2Row {
	var rows []Table2Row
	measure := func(m core.Manager, f func()) uint64 {
		before := m.Counters().SwitchCycles
		f()
		return m.Counters().SwitchCycles - before
	}

	// NS: k saves + 1 restore, k = 1..6.
	for k := 1; k <= 6; k++ {
		m := core.NewNS(core.Config{Windows: 8})
		a := m.NewThread(0, "A")
		b := m.NewThread(1, "B")
		m.Switch(b)
		m.Save()
		m.Switch(a)
		for i := 0; i < k-1; i++ {
			m.Save()
		}
		lo := uint64(145 + 36*(k-1))
		rows = append(rows, Table2Row{core.SchemeNS, k, 1,
			measure(m, func() { m.Switch(b) }), lo, lo + 4})
	}

	// SNP rows: 0/0, 0/1, 1/0, 1/1.
	snp := func(build func(m *core.SNP) (*core.Thread, func())) uint64 {
		m := core.NewSNP(core.Config{Windows: 8})
		target, prep := build(m)
		if prep != nil {
			prep()
		}
		return measure(m, func() { m.Switch(target) })
	}
	rows = append(rows, Table2Row{core.SchemeSNP, 0, 0, snp(func(m *core.SNP) (*core.Thread, func()) {
		a, b, c := m.NewThread(0, "A"), m.NewThread(1, "B"), m.NewThread(2, "C")
		m.Switch(a)
		m.Switch(b)
		m.Save()
		m.Save()
		m.Switch(c)
		m.Switch(a) // pays the spill; a->c is then transfer-free
		return c, nil
	}), 113, 118})
	rows = append(rows, Table2Row{core.SchemeSNP, 0, 1, snp(func(m *core.SNP) (*core.Thread, func()) {
		// B is pushed out of the file by A's growth, then A retreats,
		// leaving free slots at the allocation point: switching to B
		// costs only the restore of its stack-top window.
		a, b := m.NewThread(0, "A"), m.NewThread(1, "B")
		m.Switch(a)
		m.Switch(b)
		m.Save()
		m.Switch(a) // spills B's bottom to re-reserve above A
		m.Save()    // spills B's last window
		m.Save()    // grows into free space
		m.Restore()
		m.Restore()
		return b, nil
	}), 142, 147})
	rows = append(rows, Table2Row{core.SchemeSNP, 1, 0, snp(func(m *core.SNP) (*core.Thread, func()) {
		a, b := m.NewThread(0, "A"), m.NewThread(1, "B")
		m.Switch(a)
		m.Save()
		m.Switch(b)   // allocated above A
		return a, nil // re-reserving above A spills B's window
	}), 162, 171})
	rows = append(rows, Table2Row{core.SchemeSNP, 1, 1, snp(func(m *core.SNP) (*core.Thread, func()) {
		a, b := m.NewThread(0, "A"), m.NewThread(1, "B")
		m.Switch(b)
		m.Save()
		m.Switch(a)
		for i := 0; i < 8; i++ { // B spilled and A's region wraps near it
			m.Save()
		}
		return b, nil
	}), 187, 196})

	// SP rows: 0/0, 0/1, 1/1, 2/1.
	sp := func(build func(m *core.SP) *core.Thread) uint64 {
		m := core.NewSP(core.Config{Windows: 8})
		target := build(m)
		return measure(m, func() { m.Switch(target) })
	}
	rows = append(rows, Table2Row{core.SchemeSP, 0, 0, sp(func(m *core.SP) *core.Thread {
		a, b := m.NewThread(0, "A"), m.NewThread(1, "B")
		m.Switch(a)
		m.Switch(b)
		return a
	}), 93, 98})
	rows = append(rows, Table2Row{core.SchemeSP, 0, 1, sp(func(m *core.SP) *core.Thread {
		a, b := m.NewThread(0, "A"), m.NewThread(1, "B")
		m.Switch(b)
		m.Save()
		m.Switch(a)
		for i := 0; i < 6; i++ {
			m.Save()
		}
		for i := 0; i < 6; i++ {
			m.Restore()
		}
		return b
	}), 136, 141})
	rows = append(rows, Table2Row{core.SchemeSP, 1, 1, sp(func(m *core.SP) *core.Thread {
		a, b, c := m.NewThread(0, "A"), m.NewThread(1, "B"), m.NewThread(2, "C")
		m.Switch(b)
		m.Save()
		m.Switch(a)
		for i := 0; i < 6; i++ { // spill B out; A occupies most slots
			m.Save()
		}
		for i := 0; i < 3; i++ {
			m.Restore()
		}
		m.Switch(c) // C takes the free slots left by A's returns
		_ = c
		return b // allocating B must spill one victim and restore B
	}), 180, 197})
	rows = append(rows, Table2Row{core.SchemeSP, 2, 1, sp(func(m *core.SP) *core.Thread {
		a, b := m.NewThread(0, "A"), m.NewThread(1, "B")
		m.Switch(b)
		m.Save()
		m.Switch(a)
		for i := 0; i < 8; i++ {
			m.Save()
		}
		return b
	}), 220, 237})
	return rows
}

// RenderTable2 writes the measured rows next to the paper's ranges.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: Number of cycles for a context switch")
	fmt.Fprintf(w, "%-7s %5s %8s %8s %14s %s\n", "Scheme", "save", "restore", "cycles", "paper range", "ok")
	for _, r := range rows {
		ok := "yes"
		if r.Cycles < r.PaperLo || r.Cycles > r.PaperHi {
			ok = "NO"
		}
		fmt.Fprintf(w, "%-7s %5d %8d %8d %8d - %-4d %s\n",
			r.Scheme, r.Saves, r.Restores, r.Cycles, r.PaperLo, r.PaperHi, ok)
	}
}

// Point is one sample of a figure series.
type Point struct {
	Windows int
	Value   float64
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a rendered experiment: one curve per scheme and granularity.
type Figure struct {
	Title  string
	YLabel string
	// XLabel names the x axis; empty means the classic "windows" (the
	// Point.Windows field doubles as a generic x value — thread counts
	// and migration cadences for the T3 figures).
	XLabel string
	Series []Series
}

// xlabel returns the x-axis name, defaulting to the classic sweeps'.
func (f Figure) xlabel() string {
	if f.XLabel == "" {
		return "windows"
	}
	return f.XLabel
}

// figureMetric extracts the plotted value from a run.
type figureMetric func(Result) float64

// sweep runs the cross product behaviours × schemes × windows through
// the runner as one batch, so a concurrent runner sees every cell up
// front, then assembles the figure in the fixed series order.
func sweep(title, ylabel string, policy sched.Policy, behaviors []Behavior, sz Sizes, windows []int, run Runner, metric figureMetric) Figure {
	var cells []CellSpec
	for _, b := range behaviors {
		for _, s := range core.Schemes {
			for _, n := range windows {
				cells = append(cells, CellSpec{Scheme: s, Windows: n, Policy: policy, Behavior: b, Sizes: sz})
			}
		}
	}
	results := run(cells)

	fig := Figure{Title: title, YLabel: ylabel}
	i := 0
	for _, b := range behaviors {
		for _, s := range core.Schemes {
			series := Series{Label: fmt.Sprintf("%s/%s", s, b.Granularity)}
			for _, n := range windows {
				series.Points = append(series.Points, Point{n, metric(results[i])})
				i++
			}
			fig.Series = append(fig.Series, series)
		}
	}
	return fig
}

// RunFig11With is the high-concurrency execution-time comparison, its
// cells executed by run (RunSerial in-process).
func RunFig11With(sz Sizes, windows []int, run Runner) Figure {
	return sweep("Figure 11: Performance at high concurrency", "execution cycles",
		sched.FIFO, Behaviors[:3], sz, windows, run,
		func(r Result) float64 { return float64(r.Cycles) })
}

// RunFig12With is the average context-switch time at high
// concurrency.
func RunFig12With(sz Sizes, windows []int, run Runner) Figure {
	return sweep("Figure 12: Average time of a context switch at high concurrency", "cycles/switch",
		sched.FIFO, Behaviors[:3], sz, windows, run,
		func(r Result) float64 { return r.Counters.AvgSwitchCycles() })
}

// RunFig13With is the window-trap probability at high concurrency.
func RunFig13With(sz Sizes, windows []int, run Runner) Figure {
	return sweep("Figure 13: Probability of window traps at high concurrency", "traps/(save+restore)",
		sched.FIFO, Behaviors[:3], sz, windows, run,
		func(r Result) float64 { return r.Counters.TrapProbability() })
}

// RunFig14With is the low-concurrency execution-time comparison.
func RunFig14With(sz Sizes, windows []int, run Runner) Figure {
	return sweep("Figure 14: Performance at low concurrency", "execution cycles",
		sched.FIFO, Behaviors[3:], sz, windows, run,
		func(r Result) float64 { return float64(r.Cycles) })
}

// RunFig15With is the high-concurrency comparison under working-set
// scheduling.
func RunFig15With(sz Sizes, windows []int, run Runner) Figure {
	return sweep("Figure 15: Working set scheduling at high concurrency", "execution cycles",
		sched.WorkingSet, Behaviors[:3], sz, windows, run,
		func(r Result) float64 { return float64(r.Cycles) })
}

// Render writes the figure as an aligned text table, one column per
// series, plus a relative-to-best summary line per window count.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintln(w, f.Title)
	fmt.Fprintf(w, "y: %s\n", f.YLabel)
	fmt.Fprintf(w, "%8s", f.xlabel())
	for _, s := range f.Series {
		fmt.Fprintf(w, "%16s", s.Label)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return
	}
	for i, p := range f.Series[0].Points {
		fmt.Fprintf(w, "%8d", p.Windows)
		for _, s := range f.Series {
			fmt.Fprintf(w, "%16.4g", s.Points[i].Value)
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV emits the figure as comma-separated values: a header of
// series labels, then one row per window count.
func (f Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s (%s)\n", f.Title, f.YLabel); err != nil {
		return err
	}
	fmt.Fprint(w, f.xlabel())
	for _, s := range f.Series {
		fmt.Fprintf(w, ",%s", s.Label)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return nil
	}
	for i, p := range f.Series[0].Points {
		fmt.Fprintf(w, "%d", p.Windows)
		for _, s := range f.Series {
			fmt.Fprintf(w, ",%g", s.Points[i].Value)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Winner returns the series label with the lowest value at the given
// window count, considering only series whose label contains filter.
func (f Figure) Winner(windows int, filter string) string {
	best, bestVal := "", 0.0
	for _, s := range f.Series {
		if filter != "" && !strings.Contains(s.Label, filter) {
			continue
		}
		for _, p := range s.Points {
			if p.Windows == windows {
				if best == "" || p.Value < bestVal {
					best, bestVal = s.Label, p.Value
				}
			}
		}
	}
	return best
}

// Value returns the sample of the labelled series at the given window
// count, and whether it exists.
func (f Figure) Value(label string, windows int) (float64, bool) {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.Windows == windows {
				return p.Value, true
			}
		}
	}
	return 0, false
}

// SeriesLabels lists all series labels, sorted.
func (f Figure) SeriesLabels() []string {
	var out []string
	for _, s := range f.Series {
		out = append(out, s.Label)
	}
	sort.Strings(out)
	return out
}

// AblationFlush compares the in-situ switch against flushing every
// thread at every switch (Section 4.4) for the sharing schemes: when
// threads wake up soon — as in this workload — in-situ must win.
type AblationFlush struct {
	Scheme                 core.Scheme
	InSituCycles, FlushAll uint64
}

// RunAblationFlush measures both switch types on the medium-granularity
// high-concurrency behaviour.
func RunAblationFlush(sz Sizes, windows int) []AblationFlush {
	b, _ := BehaviorByName("high-medium")
	var out []AblationFlush
	for _, s := range []core.Scheme{core.SchemeSNP, core.SchemeSP} {
		o := SpellOpts{Config: core.Config{Windows: windows}, Scheme: s, Policy: sched.FIFO, Behavior: b, Sizes: sz}
		inSitu := mustSpell(o).Cycles
		// The counterfactual: every thread suspends with the flushing
		// switch, writing all its resident windows back to memory.
		o.OnKernel = func(k *sched.Kernel) {
			for _, t := range k.Threads() {
				t.SetFlushOnSwitch(true)
			}
		}
		out = append(out, AblationFlush{s, inSitu, mustSpell(o).Cycles})
	}
	return out
}

// AblationSearchAlloc compares SNP's simple allocation against the
// free-window search of Section 4.2 on the fine-granularity behaviour,
// where the ping-pong pathology bites hardest.
type AblationSearchAlloc struct {
	Windows                    int
	SimpleCycles, Search       uint64
	SimpleSpills, SearchSpills uint64
}

// RunAblationSearchAlloc sweeps the window counts.
func RunAblationSearchAlloc(sz Sizes, windows []int) []AblationSearchAlloc {
	b, _ := BehaviorByName("high-fine")
	var out []AblationSearchAlloc
	for _, n := range windows {
		o := SpellOpts{Config: core.Config{Windows: n}, Scheme: core.SchemeSNP, Policy: sched.FIFO, Behavior: b, Sizes: sz}
		simple := mustSpell(o)
		o.Config.SearchAlloc = true
		search := mustSpell(o)
		out = append(out, AblationSearchAlloc{
			Windows:      n,
			SimpleCycles: simple.Cycles, Search: search.Cycles,
			SimpleSpills: simple.Counters.SwitchSaves, SearchSpills: search.Counters.SwitchSaves,
		})
	}
	return out
}

// AblationRestoreEmulation reports the total cost attributable to
// emulating the trapped restore instruction (Section 4.3): underflow
// traps times the per-trap emulation charge.
type AblationRestoreEmulation struct {
	Scheme         core.Scheme
	UnderflowTraps uint64
	EmulationCost  uint64
	TotalCycles    uint64
}

// RunAblationRestoreEmulation measures on the fine-granularity
// high-concurrency behaviour with few windows (many underflows).
func RunAblationRestoreEmulation(sz Sizes, windows int) []AblationRestoreEmulation {
	b, _ := BehaviorByName("high-fine")
	var out []AblationRestoreEmulation
	for _, s := range []core.Scheme{core.SchemeSNP, core.SchemeSP} {
		r := CellSpec{Scheme: s, Windows: windows, Policy: sched.FIFO, Behavior: b, Sizes: sz}.Run()
		out = append(out, AblationRestoreEmulation{
			Scheme:         s,
			UnderflowTraps: r.Counters.UnderflowTraps,
			EmulationCost:  r.Counters.UnderflowTraps * cycles.RestoreEmulation,
			TotalCycles:    r.Cycles,
		})
	}
	return out
}
