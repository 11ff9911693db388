// Command winsim runs the paper's experiments on the simulated
// register-window machine and prints the corresponding table or figure.
//
// Usage:
//
//	winsim -exp list                            # catalog of experiments
//	winsim -exp table1|table2|fig11|...|all [-full] [-windows 4,8,...]
//
// By default experiments run on a reduced workload; -full uses the
// paper's exact input sizes (40,500-byte draft, 50,001-byte
// dictionaries). Figure sweeps execute their cells concurrently on a
// simsvc worker pool (-parallel=false forces the serial path; both
// produce byte-identical output). With -cachedir, completed cells are
// stored on disk and reused across invocations. With -trace FILE, every
// cell records its window-management events and the run writes one
// Chrome trace_event JSON file (open it in chrome://tracing or
// Perfetto); tracing only observes, so the printed tables are
// unchanged.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"cyclicwin/internal/check"
	"cyclicwin/internal/core"
	"cyclicwin/internal/fault"
	"cyclicwin/internal/harness"
	"cyclicwin/internal/obs"
	"cyclicwin/internal/regwin"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/simsvc"
)

func main() {
	exp := flag.String("exp", "fig11", "experiment name (see -exp list), or all")
	full := flag.Bool("full", false, "use the paper's full input sizes")
	windowsFlag := flag.String("windows", "", "comma-separated window counts (default: the paper's sweep)")
	csvDir := flag.String("csv", "", "also write figure data as CSV files into this directory")
	parallel := flag.Bool("parallel", true, "run sweep cells concurrently on a worker pool")
	workers := flag.Int("workers", 0, "pool size when -parallel (0 = GOMAXPROCS)")
	cacheDir := flag.String("cachedir", "", "reuse completed cells from this on-disk result store")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	maxCycles := flag.Uint64("maxcycles", 0, "per-simulation cycle budget; a cell exceeding it aborts with a diagnostic (0 = off)")
	faultSeed := flag.Int64("faultseed", 0, "arm the chaos injector with this seed: benign perturbations fire throughout every cell (0 = off)")
	traceOut := flag.String("trace", "", "record every cell's window events and write a Chrome trace_event JSON file (forces the serial runner)")
	checkRun := flag.Bool("check", false, "run the differential model checker instead of an experiment: all schemes vs the Reference oracle over small configurations")
	checkDepth := flag.Int("checkdepth", 4, "with -check: exhaustive action-sequence length per configuration (0 skips the exhaustive pass)")
	checkRuns := flag.Int("checkruns", 8, "with -check: seeded random sequences per configuration variant")
	checkLen := flag.Int("checklen", 400, "with -check: length of each random sequence")
	checkSeed := flag.Uint64("checkseed", 1, "with -check: base seed for the random sequences")
	policyFlag := flag.String("policy", "", "override the scheduling policy of every sweep cell: FIFO, WS or PRIO (default: each experiment's own)")
	quantum := flag.Uint64("quantum", 0, "preemptive time-slice in cycles applied to every sweep cell (0 = the paper's non-preemptive scheduling)")
	flag.Parse()

	if *checkRun {
		os.Exit(runCheck(*checkDepth, *checkRuns, *checkLen, *checkSeed))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "winsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "winsim: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "winsim: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "winsim: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *exp == "list" {
		fmt.Printf("%-10s %s\n", "name", "description")
		for _, e := range simsvc.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Description)
		}
		return
	}

	sz := harness.QuickSizes
	if *full {
		sz = harness.FullSizes
	}
	windows := harness.WindowCounts
	if *windowsFlag != "" {
		windows = nil
		for _, f := range strings.Split(*windowsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 2 || n > regwin.MaxWindows {
				fmt.Fprintf(os.Stderr, "winsim: bad window count %q\n", f)
				os.Exit(2)
			}
			windows = append(windows, n)
		}
	}

	// The runner executes figure cells: serially in-process, or fanned
	// out across a pool whose cache deduplicates cells shared between
	// figures (fig11/fig12/fig13 reuse the same sweep). The watchdog
	// and chaos flags force the serial path: their results must not be
	// answered from (or stored into) a cache keyed without them.
	runner := harness.RunSerial
	var chrome *obs.ChromeTrace
	if *traceOut != "" {
		// Tracing forces the serial path too: one tracer per cell, one
		// Chrome process per cell, all in one file in sweep order.
		chrome = &obs.ChromeTrace{}
	}
	if *maxCycles > 0 || *faultSeed != 0 || chrome != nil {
		*parallel = false
		runner = serialRunner(*maxCycles, *faultSeed, chrome)
	}
	if *parallel {
		cache, err := simsvc.NewCache(0, *cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "winsim: %v\n", err)
			os.Exit(1)
		}
		pool := simsvc.NewPool(simsvc.PoolConfig{Workers: *workers, Cache: cache})
		defer pool.Close()
		runner = pool.Runner()
	}

	// -policy and -quantum rewrite every sweep cell before it reaches
	// the runner. Rewritten specs hash differently, so caches stay
	// sound; the defaults leave every cell untouched and the published
	// figures byte-identical.
	if *policyFlag != "" || *quantum > 0 {
		var pol sched.Policy
		havePol := false
		if *policyFlag != "" {
			p, err := sched.ParsePolicy(*policyFlag)
			if err != nil {
				fmt.Fprintf(os.Stderr, "winsim: %v\n", err)
				os.Exit(2)
			}
			pol, havePol = p, true
		}
		inner := runner
		runner = func(cells []harness.CellSpec) []harness.Result {
			rewritten := make([]harness.CellSpec, len(cells))
			for i, c := range cells {
				if havePol {
					c.Policy = pol
				}
				if *quantum > 0 {
					c.Quantum = *quantum
				}
				rewritten[i] = c
			}
			return inner(rewritten)
		}
	}

	run := func(name string) {
		e, ok := simsvc.LookupExperiment(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "winsim: unknown experiment %q (try -exp list)\n", name)
			os.Exit(2)
		}
		output, csv := e.Run(sz, windows, runner)
		fmt.Print(output)
		if e.Figure && *csvDir != "" {
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "winsim: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range simsvc.ExperimentNames() {
			run(name)
		}
	} else {
		run(*exp)
	}

	if chrome != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "winsim: %v\n", err)
			os.Exit(1)
		}
		if err := chrome.Encode(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "winsim: writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "winsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *traceOut)
	}
}

// runCheck runs the differential model checker over its windows 3..8 ×
// threads 1..4 grid with the runtime invariant audit armed: every
// scheme is compared against the Reference oracle after every action,
// exhaustively at -checkdepth and with -checkruns seeded random soaks
// per configuration variant. The first divergence prints a minimized
// reproduction and exits 1.
func runCheck(depth, runs, length int, seed uint64) int {
	core.SetInvariantChecks(true)
	cfg := check.DefaultGrid()
	cfg.ExhaustiveLen = depth
	cfg.RandomRuns = runs
	cfg.RandomLen = length
	cfg.Seed = seed
	cfg.Log = func(format string, args ...interface{}) {
		fmt.Printf(format+"\n", args...)
	}
	if err := check.RunGrid(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "winsim: DIVERGENCE FOUND\n%v\n", err)
		return 1
	}
	fmt.Println("winsim: all schemes agree with the Reference oracle; no invariant violations")
	return 0
}

// serialRunner executes cells serially under any combination of the
// cycle-budget watchdog, the seeded chaos injector and the event
// tracer (one Chrome process per cell, in sweep order). A cell that
// trips the watchdog or faults terminates the run with its diagnostic
// (exit 1) — runaway or faulty guests abort instead of hanging the
// sweep.
func serialRunner(maxCycles uint64, faultSeed int64, chrome *obs.ChromeTrace) harness.Runner {
	pid := 0
	return func(cells []harness.CellSpec) []harness.Result {
		out := make([]harness.Result, len(cells))
		for i, c := range cells {
			if c.Threads > 0 {
				// T3 chain cells have no chaos points or spell trace
				// hooks; the watchdog does not apply either.
				out[i] = c.Run()
				continue
			}
			var inj *fault.Injector
			if faultSeed != 0 {
				inj = fault.NewInjector(faultSeed + int64(i))
				inj.Enable(fault.PointPreempt, 1000)
				inj.Enable(fault.PointSpuriousTrap, 1500)
				inj.Enable(fault.PointFlushReload, 2000)
			}
			opts := c.SpellOpts()
			opts.MaxCycles, opts.Chaos = maxCycles, inj
			var tr *obs.Tracer
			if chrome != nil {
				tr = obs.NewTracer(0)
				opts.OnManager = func(m core.Manager) { tr.Attach(m) }
				opts.OnKernel = func(k *sched.Kernel) {
					for _, t := range k.Threads() {
						tr.SetThreadName(t.Core.ID, t.Name())
					}
				}
			}
			r, err := harness.RunSpellWith(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "winsim: cell %v/w%d/%s: %v\n",
					c.Scheme, c.Windows, c.Behavior.Name, err)
				os.Exit(1)
			}
			if tr != nil {
				pid++
				chrome.AddProcess(pid, fmt.Sprintf("%v/w%d/%s/%s",
					c.Scheme, c.Windows, c.Policy, c.Behavior.Name), tr.Snapshot())
			}
			out[i] = r
		}
		return out
	}
}
