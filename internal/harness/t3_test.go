package harness

import (
	"reflect"
	"strings"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/sched"
)

// tinySizes keeps T3 unit-test cells fast: 10 pipeline items.
var tinySizes = Sizes{Draft: 400, Dict: 1001}

func TestT3Deterministic(t *testing.T) {
	for _, s := range core.Schemes {
		c := CellSpec{
			Scheme: s, Windows: 8, Policy: sched.WorkingSet, Sizes: tinySizes,
			Threads: 16, Cores: 2, Quantum: 150, MigrateEvery: 3,
		}
		a, b := c.Run(), c.Run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: T3 cell not deterministic:\n%+v\n%+v", s, a, b)
		}
		if a.Cycles == 0 {
			t.Errorf("%v: T3 cell reports zero cycles", s)
		}
	}
}

func TestT3SingleCoreMatchesPlainKernel(t *testing.T) {
	// Cores 0 and 1 must be the same machine.
	for _, s := range core.Schemes {
		c0 := CellSpec{Scheme: s, Windows: 8, Policy: sched.FIFO, Sizes: tinySizes, Threads: 8}
		c1 := c0
		c1.Cores = 1
		if a, b := c0.Run(), c1.Run(); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: Cores=0 and Cores=1 disagree:\n%+v\n%+v", s, a, b)
		}
	}
}

func TestCrossoverThreadsFigure(t *testing.T) {
	threads := []int{4, 8, 16}
	fig := RunCrossoverThreadsWith(tinySizes, 8, threads, RunSerial)
	if got, want := len(fig.Series), len(core.Schemes); got != want {
		t.Fatalf("series = %d, want %d", got, want)
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(threads) {
			t.Fatalf("series %q has %d points, want %d", s.Label, len(s.Points), len(threads))
		}
		for i, p := range s.Points {
			if p.Windows != threads[i] {
				t.Errorf("series %q point %d: x = %d, want %d", s.Label, i, p.Windows, threads[i])
			}
			if p.Value <= 0 {
				t.Errorf("series %q point %d: non-positive cycles %v", s.Label, i, p.Value)
			}
		}
	}
	var buf strings.Builder
	fig.Render(&buf)
	if !strings.Contains(buf.String(), "threads") {
		t.Errorf("rendered figure missing the threads x-label:\n%s", buf.String())
	}
}

func TestCrossoverMigrationFigure(t *testing.T) {
	rates := []int{0, 2}
	fig := RunCrossoverMigrationWith(tinySizes, 8, 12, rates, RunSerial)
	if got, want := len(fig.Series), len(core.Schemes); got != want {
		t.Fatalf("series = %d, want %d", got, want)
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(rates) {
			t.Fatalf("series %q has %d points, want %d", s.Label, len(s.Points), len(rates))
		}
		// Migrating on every other dispatch must not be cheaper than
		// never migrating: every move is a priced forced flush.
		if s.Points[1].Value < s.Points[0].Value {
			t.Errorf("series %q: migration run (%v cycles) cheaper than baseline (%v)",
				s.Label, s.Points[1].Value, s.Points[0].Value)
		}
	}
}

// TestT3Smoke is the scripts/smoke_t3.sh entry point: a 128-thread
// preemptive multi-core sweep across all schemes and policies, with the
// checksum verified inside RunT3 and migration/preemption activity
// asserted here. Short mode trims the thread count.
func TestT3Smoke(t *testing.T) {
	threads := 128
	if testing.Short() {
		threads = 48
	}
	for _, s := range core.Schemes {
		for _, p := range sched.Policies {
			c := CellSpec{
				Scheme: s, Windows: 64, Policy: p, Sizes: tinySizes,
				Threads: threads, Cores: 4, Quantum: 20, MigrateEvery: 2,
			}
			r := c.Run()
			if r.Counters.Migrations == 0 {
				t.Errorf("%v/%v: no migrations at MigrateEvery=2", s, p)
			}
			// NS flushes every window at every suspension, so a
			// migrating NS thread never has resident state to move; the
			// sharing schemes must move some.
			if s != core.SchemeNS && r.Counters.MigrationSaves == 0 {
				t.Errorf("%v/%v: migrations moved no windows", s, p)
			}
			if r.Counters.Preemptions == 0 {
				t.Errorf("%v/%v: no preemptions with quantum 20 over %d threads", s, p, threads)
			}
		}
	}
}

// BenchmarkT3Cell measures one 256-thread chain cell per scheme — the
// heaviest single point of the t3threads crossover figure.
func BenchmarkT3Cell(b *testing.B) {
	benchWithoutAudit(b)
	for _, s := range core.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			c := CellSpec{Scheme: s, Windows: 32, Policy: sched.FIFO, Sizes: QuickSizes, Threads: 256}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunT3(c)
			}
		})
	}
}

// BenchmarkT3MigratingCell measures the 4-core preemptive migrating
// configuration of the t3migration figure at its most migration-heavy
// point (a forced flush every other dispatch).
func BenchmarkT3MigratingCell(b *testing.B) {
	benchWithoutAudit(b)
	for _, s := range core.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			c := CellSpec{
				Scheme: s, Windows: 32, Policy: sched.FIFO, Sizes: QuickSizes,
				Threads: 128, Cores: 4, Quantum: 300, MigrateEvery: 2,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunT3(c)
			}
		})
	}
}
