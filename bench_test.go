// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark reports the simulated execution time as
// "simcycles" (the y axis of the performance figures) along with
// experiment-specific metrics; wall-clock ns/op measures the simulator
// itself, not the modelled machine.
//
// The benchmarks run on the reduced QuickSizes workload so the full
// suite finishes quickly; `go run ./cmd/winsim -full -exp ...`
// regenerates any experiment at the paper's exact input sizes.
package cyclicwin

import (
	"fmt"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/harness"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/workload"
)

var benchWindows = []int{4, 8, 16, 32}

// benchSpell runs one spell-checker configuration per iteration and
// reports the paper's metrics.
func benchSpell(b *testing.B, scheme core.Scheme, windows int, policy sched.Policy, behavior string) {
	bh, ok := harness.BehaviorByName(behavior)
	if !ok {
		b.Fatalf("unknown behavior %q", behavior)
	}
	var r harness.Result
	for i := 0; i < b.N; i++ {
		r = harness.CellSpec{Scheme: scheme, Windows: windows, Policy: policy, Behavior: bh, Sizes: harness.QuickSizes}.Run()
	}
	b.ReportMetric(float64(r.Cycles), "simcycles")
	b.ReportMetric(r.Counters.AvgSwitchCycles(), "cyc/switch")
	b.ReportMetric(r.Counters.TrapProbability(), "trapprob")
	b.ReportMetric(float64(r.Counters.Switches), "switches")
}

// BenchmarkTable1 regenerates the program-behaviour characterisation:
// per-behaviour context-switch totals (scheme-independent).
func BenchmarkTable1(b *testing.B) {
	benchWithoutAudit(b)
	for _, bh := range harness.Behaviors {
		b.Run(bh.Name, func(b *testing.B) {
			var r harness.Result
			for i := 0; i < b.N; i++ {
				r = harness.CellSpec{Scheme: core.SchemeSP, Windows: 32, Policy: sched.FIFO, Behavior: bh, Sizes: harness.QuickSizes}.Run()
			}
			b.ReportMetric(float64(r.Counters.Switches), "switches")
			b.ReportMetric(float64(r.Counters.Saves), "saves")
		})
	}
}

// BenchmarkTable2 regenerates the context-switch cost table; each row's
// charged cycles are reported as "simcycles".
func BenchmarkTable2(b *testing.B) {
	benchWithoutAudit(b)
	var rows []harness.Table2Row
	for i := 0; i < b.N; i++ {
		rows = harness.RunTable2()
	}
	for _, r := range rows {
		b.Run(fmt.Sprintf("%v-%ds%dr", r.Scheme, r.Saves, r.Restores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = harness.RunTable2()
			}
			b.ReportMetric(float64(r.Cycles), "simcycles")
		})
	}
}

// BenchmarkFig11 is the high-concurrency execution-time sweep (FIFO).
func BenchmarkFig11(b *testing.B) {
	benchWithoutAudit(b)
	for _, g := range []string{"fine", "medium", "coarse"} {
		for _, s := range core.Schemes {
			for _, w := range benchWindows {
				b.Run(fmt.Sprintf("%s/%v/w%d", g, s, w), func(b *testing.B) {
					benchSpell(b, s, w, sched.FIFO, "high-"+g)
				})
			}
		}
	}
}

// BenchmarkFig11EndToEnd regenerates the entire Figure 11 sweep (every
// scheme, window count and granularity) per iteration — the end-to-end
// wall-clock number for the whole evaluation pipeline. The simulated
// results are pinned byte-for-byte by the harness golden test; this
// benchmark tracks how long producing them takes.
func BenchmarkFig11EndToEnd(b *testing.B) {
	benchWithoutAudit(b)
	var f harness.Figure
	for i := 0; i < b.N; i++ {
		f = harness.RunFig11With(harness.QuickSizes, benchWindows, harness.RunSerial)
	}
	if len(f.Series) == 0 {
		b.Fatal("empty figure")
	}
}

// BenchmarkFig12 reports the average context-switch time at high
// concurrency (the cyc/switch metric is the figure's y axis).
func BenchmarkFig12(b *testing.B) {
	benchWithoutAudit(b)
	for _, s := range core.Schemes {
		for _, w := range benchWindows {
			b.Run(fmt.Sprintf("%v/w%d", s, w), func(b *testing.B) {
				benchSpell(b, s, w, sched.FIFO, "high-fine")
			})
		}
	}
}

// BenchmarkFig13 reports the window-trap probability at high concurrency
// (the trapprob metric is the figure's y axis).
func BenchmarkFig13(b *testing.B) {
	benchWithoutAudit(b)
	for _, s := range core.Schemes {
		for _, w := range benchWindows {
			b.Run(fmt.Sprintf("%v/w%d", s, w), func(b *testing.B) {
				benchSpell(b, s, w, sched.FIFO, "high-medium")
			})
		}
	}
}

// BenchmarkFig14 is the low-concurrency execution-time sweep.
func BenchmarkFig14(b *testing.B) {
	benchWithoutAudit(b)
	for _, g := range []string{"fine", "medium", "coarse"} {
		for _, s := range core.Schemes {
			for _, w := range benchWindows {
				b.Run(fmt.Sprintf("%s/%v/w%d", g, s, w), func(b *testing.B) {
					benchSpell(b, s, w, sched.FIFO, "low-"+g)
				})
			}
		}
	}
}

// BenchmarkFig15 is the high-concurrency sweep under working-set
// scheduling, including the small window counts where it matters.
func BenchmarkFig15(b *testing.B) {
	benchWithoutAudit(b)
	for _, s := range core.Schemes {
		for _, w := range []int{6, 7, 8, 16, 32} {
			b.Run(fmt.Sprintf("%v/w%d", s, w), func(b *testing.B) {
				benchSpell(b, s, w, sched.WorkingSet, "high-fine")
			})
		}
	}
}

// BenchmarkAblationFlush compares the in-situ and flushing switch types
// of Section 4.4.
func BenchmarkAblationFlush(b *testing.B) {
	benchWithoutAudit(b)
	var rows []harness.AblationFlush
	for i := 0; i < b.N; i++ {
		rows = harness.RunAblationFlush(harness.QuickSizes, 16)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.FlushAll)/float64(r.InSituCycles), "flush/insitu."+r.Scheme.String())
	}
}

// BenchmarkAblationSearchAlloc compares SNP's simple and searching
// window allocation (Section 4.2).
func BenchmarkAblationSearchAlloc(b *testing.B) {
	benchWithoutAudit(b)
	var rows []harness.AblationSearchAlloc
	for i := 0; i < b.N; i++ {
		rows = harness.RunAblationSearchAlloc(harness.QuickSizes, []int{12})
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Search)/float64(r.SimpleCycles), "search/simple")
	}
}

// BenchmarkAblationRestoreEmulation measures the Section 4.3 emulation
// overhead as a fraction of total runtime.
func BenchmarkAblationRestoreEmulation(b *testing.B) {
	benchWithoutAudit(b)
	var rows []harness.AblationRestoreEmulation
	for i := 0; i < b.N; i++ {
		rows = harness.RunAblationRestoreEmulation(harness.QuickSizes, 6)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.EmulationCost)/float64(r.TotalCycles), "emul/total."+r.Scheme.String())
	}
}

// BenchmarkRing measures the token-ring workload (pure context-switch
// stress) under each scheme.
func BenchmarkRing(b *testing.B) {
	benchWithoutAudit(b)
	for _, s := range core.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			var cyc uint64
			for i := 0; i < b.N; i++ {
				k := sched.NewKernel(core.New(s, core.Config{Windows: 16}), sched.FIFO)
				workload.Ring(k, 8, 50)
				k.Run()
				cyc = k.Cycles().Total()
			}
			b.ReportMetric(float64(cyc), "simcycles")
		})
	}
}

// BenchmarkForkJoin measures the fork-join tree workload.
func BenchmarkForkJoin(b *testing.B) {
	benchWithoutAudit(b)
	for _, s := range core.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			var cyc uint64
			for i := 0; i < b.N; i++ {
				k := sched.NewKernel(core.New(s, core.Config{Windows: 16}), sched.FIFO)
				workload.ForkJoin(k, 5, 8)
				k.Run()
				cyc = k.Cycles().Total()
			}
			b.ReportMetric(float64(cyc), "simcycles")
		})
	}
}

// BenchmarkTransferDepth sweeps the windows-per-trap knob (the
// Tamir/Sequin design space) on the synthetic deep-call workload.
func BenchmarkTransferDepth(b *testing.B) {
	benchWithoutAudit(b)
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("transfer%d", k), func(b *testing.B) {
			var cyc uint64
			for i := 0; i < b.N; i++ {
				kern := sched.NewKernel(core.New(core.SchemeSP,
					core.Config{Windows: 8, TrapTransfer: k}), sched.FIFO)
				workload.Synthetic(kern, workload.SyntheticConfig{
					Threads: 4, Bursts: 50, Depth: 12, Work: 3,
				})
				kern.Run()
				cyc = kern.Cycles().Total()
			}
			b.ReportMetric(float64(cyc), "simcycles")
		})
	}
}

// BenchmarkSchemeMicro measures raw simulator throughput: save/restore
// pairs per second under each scheme (useful for tracking the
// simulator's own performance).
func BenchmarkSchemeMicro(b *testing.B) {
	benchWithoutAudit(b)
	for _, s := range core.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			m := core.New(s, core.Config{Windows: 8})
			th := m.NewThread(0, "bench")
			m.Switch(th)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Save()
				m.Save()
				m.Restore()
				m.Restore()
			}
		})
	}
}
