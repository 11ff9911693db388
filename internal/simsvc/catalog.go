package simsvc

import (
	"bytes"
	"fmt"

	"cyclicwin/internal/harness"
)

// Experiment is one entry of the experiment catalog: the single
// registry behind `winsim -exp list`, `winsim -exp <name>`, the
// JobSpec.Experiment namespace and `GET /v1/experiments`.
type Experiment struct {
	// Name is the identifier used by winsim -exp and JobSpec.
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description"`
	// Figure reports whether the experiment produces CSV series data
	// in addition to its rendered text.
	Figure bool `json:"figure"`

	// run renders the experiment. Figure sweeps execute their cells
	// through the given runner; everything else ignores it.
	run func(sz harness.Sizes, windows []int, run harness.Runner) (output, csv string)
}

func figureExperiment(name, desc string, f func(harness.Sizes, []int, harness.Runner) harness.Figure) Experiment {
	return Experiment{
		Name:        name,
		Description: desc,
		Figure:      true,
		run: func(sz harness.Sizes, windows []int, run harness.Runner) (string, string) {
			fig := f(sz, windows, run)
			var out, csv bytes.Buffer
			fig.Render(&out)
			if err := fig.WriteCSV(&csv); err != nil {
				// Buffer writes cannot fail; keep the signature honest.
				fmt.Fprintf(&out, "csv error: %v\n", err)
			}
			return out.String(), csv.String()
		},
	}
}

func textExperiment(name, desc string, f func(out *bytes.Buffer, sz harness.Sizes, windows []int)) Experiment {
	return Experiment{
		Name:        name,
		Description: desc,
		run: func(sz harness.Sizes, windows []int, _ harness.Runner) (string, string) {
			var out bytes.Buffer
			f(&out, sz, windows)
			return out.String(), ""
		},
	}
}

// catalog lists every experiment in presentation order. Keep this the
// only place experiment names are enumerated.
var catalog = []Experiment{
	textExperiment("table1", "Table 1: per-thread context-switch counts and dynamic saves for the six behaviours",
		func(out *bytes.Buffer, sz harness.Sizes, _ []int) { harness.RunTable1(sz).Render(out) }),
	textExperiment("table2", "Table 2: cycles per context switch by scheme and (saves,restores) transferred",
		func(out *bytes.Buffer, _ harness.Sizes, _ []int) { harness.RenderTable2(out, harness.RunTable2()) }),
	figureExperiment("fig11", "Figure 11: execution time vs windows, high concurrency", harness.RunFig11With),
	figureExperiment("fig12", "Figure 12: average context-switch time vs windows, high concurrency", harness.RunFig12With),
	figureExperiment("fig13", "Figure 13: window-trap probability vs windows, high concurrency", harness.RunFig13With),
	figureExperiment("fig14", "Figure 14: execution time vs windows, low concurrency", harness.RunFig14With),
	figureExperiment("fig15", "Figure 15: execution time vs windows under working-set scheduling", harness.RunFig15With),
	textExperiment("ablation", "Section 4 design-choice ablations: flush vs in-situ, SNP allocation search, restore emulation", renderAblations),
	textExperiment("activity", "Section 5 quantities: window activity per thread, total activity, concurrency",
		func(out *bytes.Buffer, sz harness.Sizes, _ []int) {
			harness.RenderActivity(out, harness.RunActivity(sz))
		}),
	textExperiment("tail", "Context-switch latency distribution (p50/p99/max) per scheme",
		func(out *bytes.Buffer, sz harness.Sizes, _ []int) { harness.RenderTail(out, harness.RunTail(sz, 8)) }),
	textExperiment("transfer", "Windows transferred per overflow trap (Tamir & Sequin depth sweep)",
		func(out *bytes.Buffer, sz harness.Sizes, _ []int) {
			harness.RenderTransferSweep(out, harness.RunTransferSweep(sz, 8, []int{1, 2, 4}), 8)
		}),
	textExperiment("hw", "Conclusion 3 projection: the same algorithms under a multi-threaded-architecture cost model",
		func(out *bytes.Buffer, sz harness.Sizes, _ []int) {
			harness.RenderHWProjection(out, harness.RunHWProjection(sz, []int{8, 16, 32}))
		}),
	figureExperiment("t3threads", "T3 crossover: chain-pipeline execution time vs thread count (8..256) at a fixed window file",
		func(sz harness.Sizes, windows []int, run harness.Runner) harness.Figure {
			return harness.RunCrossoverThreadsWith(sz, t3FileSize(windows), harness.ThreadCounts, run)
		}),
	figureExperiment("t3migration", "T3 migration: chain-pipeline execution time vs migration cadence on 4 preemptive cores",
		func(sz harness.Sizes, windows []int, run harness.Runner) harness.Figure {
			return harness.RunCrossoverMigrationWith(sz, t3FileSize(windows), 64, harness.MigrationRates, run)
		}),
}

// t3FileSize picks the window-file size of the T3 figures from the
// job's window list: the largest requested file (the T3 sweeps vary
// threads and migration, not windows). The default 4..32 list yields
// the paper's largest file, 32 windows.
func t3FileSize(windows []int) int {
	size := 0
	for _, n := range windows {
		if n > size {
			size = n
		}
	}
	if size == 0 {
		size = 32
	}
	return size
}

func renderAblations(out *bytes.Buffer, sz harness.Sizes, windows []int) {
	fmt.Fprintln(out, "Ablation A: in-situ vs flushing context switch (Section 4.4, high-medium, 16 windows)")
	for _, a := range harness.RunAblationFlush(sz, 16) {
		fmt.Fprintf(out, "  %-4s in-situ %12d cycles   flush-all %12d cycles   (flush/in-situ = %.3f)\n",
			a.Scheme, a.InSituCycles, a.FlushAll, float64(a.FlushAll)/float64(a.InSituCycles))
	}
	fmt.Fprintln(out, "Ablation B: SNP simple vs searching window allocation (Section 4.2, high-fine)")
	for _, a := range harness.RunAblationSearchAlloc(sz, windows) {
		fmt.Fprintf(out, "  windows %2d: simple %12d cycles (%7d switch spills)   search %12d cycles (%7d switch spills)\n",
			a.Windows, a.SimpleCycles, a.SimpleSpills, a.Search, a.SearchSpills)
	}
	fmt.Fprintln(out, "Ablation C: cost of restore-instruction emulation (Section 4.3, high-fine, 6 windows)")
	for _, a := range harness.RunAblationRestoreEmulation(sz, 6) {
		fmt.Fprintf(out, "  %-4s underflow traps %9d   emulation cost %9d cycles   (%.4f%% of runtime)\n",
			a.Scheme, a.UnderflowTraps, a.EmulationCost, 100*float64(a.EmulationCost)/float64(a.TotalCycles))
	}
}

// Experiments returns the catalog in presentation order.
func Experiments() []Experiment {
	return append([]Experiment(nil), catalog...)
}

// ExperimentNames returns the catalog names in presentation order.
func ExperimentNames() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.Name
	}
	return names
}

// LookupExperiment finds a catalog entry by name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range catalog {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run renders the experiment on the given workload scale and window
// sweep, executing figure cells through the runner (harness.RunSerial
// when nil).
func (e Experiment) Run(sz harness.Sizes, windows []int, run harness.Runner) (output, csv string) {
	if run == nil {
		run = harness.RunSerial
	}
	return e.run(sz, windows, run)
}
