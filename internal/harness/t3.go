package harness

import (
	"fmt"

	"cyclicwin/internal/core"
	"cyclicwin/internal/cycles"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/sched"
	wl "cyclicwin/internal/workload"
)

// This file runs the T3-scale cells: the chain pipeline workload at
// 8..256 threads, optionally preemptive, over one or many cores with
// deterministic migration — the configurations the paper's Section 6
// points at ("the scheme comparison at many threads") but could not
// run on 1993 hardware. Cells stay pure functions of their spec, so the
// same Runner machinery (pool, cache) serves them.

// t3Depth is the call-chain depth per pipeline hop: every item charges
// this many windows on every stage it crosses.
const t3Depth = 4

// t3Items scales the pipeline input with the workload sizes, so -full
// deepens T3 sweeps the same way it deepens the spell figures.
func t3Items(sz Sizes) int {
	items := sz.Draft / 40
	if items < 8 {
		items = 8
	}
	return items
}

// ThreadCounts is the T3 sweep range of pipeline thread counts.
var ThreadCounts = []int{8, 16, 32, 64, 128, 256}

// RunT3 executes one chain-workload cell: c.Threads pipeline threads on
// c.Windows-window files across max(c.Cores,1) cores under c.Policy,
// with optional time-slicing (c.Quantum) and deterministic migration
// (c.MigrateEvery). The checksum of the pipeline output lands in
// Result.Misspelled, counters aggregate over all cores.
func RunT3(c CellSpec) Result {
	cores := c.Cores
	if cores < 1 {
		cores = 1
	}
	cyc := new(cycles.Counter)
	memory := mem.New()
	cfg := core.Config{Windows: c.Windows, Memory: memory, Counter: cyc}
	if cores > 1 {
		cfg.Stacks = mem.NewStackAllocator(0xfff0000, 1<<16)
	}
	mgrs := make([]core.Manager, cores)
	for i := range mgrs {
		mgrs[i] = core.New(c.Scheme, cfg)
	}
	k := sched.NewMultiKernel(mgrs, c.Policy)
	if c.Quantum > 0 {
		k.SetQuantum(c.Quantum)
	}
	if c.MigrateEvery > 0 {
		k.SetMigrateEvery(c.MigrateEvery)
	}
	items := t3Items(c.Sizes)
	result := wl.Chain(k, c.Threads, t3Depth, items)
	if err := k.Run(); err != nil {
		panic(err) // the deterministic pipeline cannot fail
	}
	got := result()
	if want := wl.ChainExpected(c.Threads, t3Depth, items); got != want {
		panic(fmt.Sprintf("harness: t3 cell %v/w%d/n%d checksum %#x, want %#x",
			c.Scheme, c.Windows, c.Threads, got, want))
	}
	return Result{
		Scheme:     c.Scheme,
		Windows:    c.Windows,
		Policy:     c.Policy,
		Cycles:     cyc.Total(),
		Counters:   k.TotalCounters(),
		Misspelled: int(got),
	}
}

// RunCrossoverThreadsWith sweeps the scheme comparison against thread
// count at a fixed window file, its cells executed by run: execution
// cycles of the chain pipeline per scheme as the thread count scales
// 8..256 over one window file. The paper's 4..32
// figures hold the workload fixed and grow the file; this figure holds
// the file fixed and grows the thread population past it, which is
// where the schemes cross over.
func RunCrossoverThreadsWith(sz Sizes, windows int, threads []int, run Runner) Figure {
	var cells []CellSpec
	for _, s := range core.Schemes {
		for _, n := range threads {
			cells = append(cells, CellSpec{
				Scheme: s, Windows: windows, Policy: sched.FIFO, Sizes: sz, Threads: n,
			})
		}
	}
	results := run(cells)

	fig := Figure{
		Title:  fmt.Sprintf("T3 crossover: execution time vs thread count (%d windows)", windows),
		YLabel: "execution cycles",
		XLabel: "threads",
	}
	i := 0
	for _, s := range core.Schemes {
		series := Series{Label: fmt.Sprintf("%s/w%d", s, windows)}
		for _, n := range threads {
			series.Points = append(series.Points, Point{n, float64(results[i].Cycles)})
			i++
		}
		fig.Series = append(fig.Series, series)
	}
	return fig
}

// MigrationRates is the T3 migration sweep: a thread migrates on every
// n-th dispatch (0 = never), so smaller values mean more migration.
var MigrationRates = []int{0, 16, 8, 4, 2, 1}

// RunCrossoverMigrationWith sweeps the scheme comparison against
// migration cadence, its cells executed by run: 4 cores, time-sliced,
// with a thread forced to another core every rate-th dispatch. x = rate (0 means no migration); every
// migration is priced as a forced flush, so schemes that keep more
// state resident pay more per move.
func RunCrossoverMigrationWith(sz Sizes, windows, threads int, rates []int, run Runner) Figure {
	const cores, quantum = 4, 300
	var cells []CellSpec
	for _, s := range core.Schemes {
		for _, rate := range rates {
			cells = append(cells, CellSpec{
				Scheme: s, Windows: windows, Policy: sched.FIFO, Sizes: sz,
				Threads: threads, Cores: cores, Quantum: quantum, MigrateEvery: rate,
			})
		}
	}
	results := run(cells)

	fig := Figure{
		Title: fmt.Sprintf("T3 migration: execution time vs migration cadence (%d threads, %d cores, %d windows)",
			threads, cores, windows),
		YLabel: "execution cycles",
		XLabel: "migrate-every",
	}
	i := 0
	for _, s := range core.Schemes {
		series := Series{Label: fmt.Sprintf("%s/n%d", s, threads)}
		for _, rate := range rates {
			series.Points = append(series.Points, Point{rate, float64(results[i].Cycles)})
			i++
		}
		fig.Series = append(fig.Series, series)
	}
	return fig
}
