package harness

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cyclicwin/internal/core"
	"cyclicwin/internal/fault"
	"cyclicwin/internal/sched"
)

// testSizes keeps the shape-checking sweeps fast.
var testSizes = Sizes{Draft: 6000, Dict: 8001}

var testWindows = []int{4, 6, 8, 16, 32}

func figValue(t *testing.T, f Figure, label string, windows int) float64 {
	t.Helper()
	v, ok := f.Value(label, windows)
	if !ok {
		t.Fatalf("figure has no point %s@%d (series: %v)", label, windows, f.SeriesLabels())
	}
	return v
}

// TestTable2MatchesPaperRanges pins every measured row inside the
// paper's measured range.
func TestTable2MatchesPaperRanges(t *testing.T) {
	for _, r := range RunTable2() {
		if r.Cycles < r.PaperLo || r.Cycles > r.PaperHi {
			t.Errorf("%v %d save %d restore: %d cycles outside paper range [%d,%d]",
				r.Scheme, r.Saves, r.Restores, r.Cycles, r.PaperLo, r.PaperHi)
		}
	}
}

// TestTable1SchemeIndependence pins the property the paper relies on to
// present Table 1 once, and that recorded FIFO schedules rest on:
// suspension counts, save counts and the output do not depend on the
// scheme or the window count under FIFO scheduling. It compares live
// runs; replayed cells would share one schedule and could not differ.
func TestTable1SchemeIndependence(t *testing.T) {
	for _, b := range Behaviors {
		run := func(s core.Scheme, n int) Result {
			r, err := runSpellLive(SpellOpts{Config: core.Config{Windows: n}, Scheme: s, Policy: sched.FIFO, Behavior: b, Sizes: testSizes})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		ref := run(core.SchemeSP, 32)
		for _, s := range core.Schemes {
			for _, n := range []int{5, 16} {
				r := run(s, n)
				if r.ThreadSuspensions != ref.ThreadSuspensions {
					t.Errorf("%s: %v windows=%d suspensions %v != reference %v",
						b.Name, s, n, r.ThreadSuspensions, ref.ThreadSuspensions)
				}
				if r.Counters.Saves != ref.Counters.Saves {
					t.Errorf("%s: %v windows=%d saves %d != reference %d", b.Name, s, n, r.Counters.Saves, ref.Counters.Saves)
				}
				if r.Misspelled != ref.Misspelled {
					t.Errorf("%s: %v windows=%d reported %d misspellings, reference %d", b.Name, s, n, r.Misspelled, ref.Misspelled)
				}
			}
		}
	}
}

// TestTable1GranularityOrdering pins that context switches fall as
// buffers grow, for every thread total, and that the dictionary threads
// hit the Table 1 signature counts dictBytes/M (+1 block residue).
func TestTable1GranularityOrdering(t *testing.T) {
	t1 := RunTable1(testSizes)
	total := func(name string) (sum uint64) {
		for _, v := range t1.Suspensions[name] {
			sum += v
		}
		return
	}
	if !(total("high-fine") > total("high-medium") && total("high-medium") > total("high-coarse")) {
		t.Errorf("high-concurrency totals not ordered: %d, %d, %d",
			total("high-fine"), total("high-medium"), total("high-coarse"))
	}
	if !(total("low-fine") > total("low-medium") && total("low-medium") > total("low-coarse")) {
		t.Errorf("low-concurrency totals not ordered: %d, %d, %d",
			total("low-fine"), total("low-medium"), total("low-coarse"))
	}
	// T6 (index 5) suspends about dictBytes/M times.
	for _, b := range Behaviors {
		got := t1.Suspensions[b.Name][5]
		want := uint64(testSizes.Dict / b.M)
		if got+1 < want || got > want+want/4+16 {
			t.Errorf("%s: T6 suspensions = %d, want about %d", b.Name, got, want)
		}
	}
	// Low concurrency: the file threads suspend far less than the spell
	// threads (that is what makes concurrency low).
	low := t1.Suspensions["low-fine"]
	if low[5]*20 > low[1] {
		t.Errorf("low-fine: T6 (%d) not far below T2 (%d)", low[5], low[1])
	}
}

// TestFig11Shapes pins the paper's headline claims on the
// high-concurrency sweep:
//
//  1. with sufficient windows the best scheme is SP,
//  2. with few windows the best scheme is NS,
//  3. there is no region where SNP beats both SP and NS, and
//  4. the advantage of the sharing schemes grows as granularity
//     becomes finer.
func TestFig11Shapes(t *testing.T) {
	fig := RunFig11With(testSizes, testWindows, RunSerial)
	for _, g := range []string{"fine", "medium", "coarse"} {
		if w := fig.Winner(32, g); w != "SP/"+g {
			t.Errorf("best scheme at 32 windows (%s) = %s, want SP", g, w)
		}
		if w := fig.Winner(4, g); w != "NS/"+g {
			t.Errorf("best scheme at 4 windows (%s) = %s, want NS", g, w)
		}
		for _, n := range testWindows {
			snp := figValue(t, fig, "SNP/"+g, n)
			sp := figValue(t, fig, "SP/"+g, n)
			ns := figValue(t, fig, "NS/"+g, n)
			if snp < sp && snp < ns {
				t.Errorf("SNP strictly best at %d windows (%s): snp=%g sp=%g ns=%g", n, g, snp, sp, ns)
			}
		}
	}
	advantage := func(g string) float64 {
		return figValue(t, fig, "NS/"+g, 32) / figValue(t, fig, "SP/"+g, 32)
	}
	if !(advantage("fine") > advantage("coarse")) {
		t.Errorf("sharing advantage does not grow with finer granularity: fine=%.3f coarse=%.3f",
			advantage("fine"), advantage("coarse"))
	}
}

// TestFig12SwitchTimeApproachesBestCase pins Section 6.3: with
// sufficient windows the sharing schemes' average switch time comes
// close to the best case of Table 2 (93-98 for SP, 113-118 for SNP),
// showing most switches move no window.
func TestFig12SwitchTimeApproachesBestCase(t *testing.T) {
	fig := RunFig12With(testSizes, testWindows, RunSerial)
	sp := figValue(t, fig, "SP/fine", 32)
	if sp > 98 {
		t.Errorf("SP average switch at 32 windows = %.1f cycles, want within best-case range <= 98", sp)
	}
	snp := figValue(t, fig, "SNP/fine", 32)
	if snp > 118 {
		t.Errorf("SNP average switch at 32 windows = %.1f cycles, want <= 118", snp)
	}
	ns := figValue(t, fig, "NS/fine", 32)
	if ns < 145 {
		t.Errorf("NS average switch = %.1f cycles, below its minimum 145", ns)
	}
}

// TestFig13TrapProbabilityFalls pins Section 6.3's claim that the
// sharing schemes are also effective for fast procedure calls: trap
// probability falls steeply with window count, far below NS.
func TestFig13TrapProbabilityFalls(t *testing.T) {
	fig := RunFig13With(testSizes, testWindows, RunSerial)
	for _, g := range []string{"fine", "medium", "coarse"} {
		at4 := figValue(t, fig, "SP/"+g, 4)
		at32 := figValue(t, fig, "SP/"+g, 32)
		if !(at32 < at4/3) {
			t.Errorf("SP/%s trap probability did not fall: %.4f at 4 windows, %.4f at 32", g, at4, at32)
		}
		ns := figValue(t, fig, "NS/"+g, 32)
		if !(at32 < ns/2) {
			t.Errorf("SP/%s traps (%.4f) not well below NS (%.4f) at 32 windows", g, at32, ns)
		}
	}
}

// TestFig14LowConcurrencySaturatesLater pins Section 6.4: total window
// activity is larger at low concurrency, so the sharing schemes need
// more windows to saturate than at high concurrency.
func TestFig14LowConcurrencySaturatesLater(t *testing.T) {
	windows := []int{4, 8, 12, 16, 32}
	high := RunFig11With(testSizes, windows, RunSerial)
	low := RunFig14With(testSizes, windows, RunSerial)
	saturation := func(f Figure, label string) int {
		final := figValue(t, f, label, 32)
		for _, n := range windows {
			if figValue(t, f, label, n) <= final*1.02 {
				return n
			}
		}
		return 32
	}
	h := saturation(high, "SP/coarse")
	l := saturation(low, "SP/coarse")
	if l < h {
		t.Errorf("low concurrency saturated earlier (%d windows) than high (%d)", l, h)
	}
}

// TestFig15WorkingSet pins Section 6.5: the working-set policy makes the
// sharing schemes work well with seven or eight windows, with no
// significant loss at large window counts.
func TestFig15WorkingSet(t *testing.T) {
	windows := []int{7, 8, 32}
	fifo := RunFig11With(testSizes, windows, RunSerial)
	ws := RunFig15With(testSizes, windows, RunSerial)
	for _, n := range []int{7, 8} {
		f := figValue(t, fifo, "SP/fine", n)
		w := figValue(t, ws, "SP/fine", n)
		if !(w < f*0.95) {
			t.Errorf("working set at %d windows: %.3g cycles, FIFO %.3g — expected a clear improvement", n, w, f)
		}
	}
	f32 := figValue(t, fifo, "SP/fine", 32)
	w32 := figValue(t, ws, "SP/fine", 32)
	if w32 > f32*1.05 {
		t.Errorf("working set lost %.1f%% at 32 windows", 100*(w32/f32-1))
	}
}

// TestAblationFlushInSituWins pins Section 4.4's premise for this
// workload: all threads wake soon, so leaving windows in place beats
// flushing them at every switch.
func TestAblationFlushInSituWins(t *testing.T) {
	for _, a := range RunAblationFlush(testSizes, 16) {
		if a.FlushAll <= a.InSituCycles {
			t.Errorf("%v: flushing every switch (%d cycles) did not lose to in-situ (%d)",
				a.Scheme, a.FlushAll, a.InSituCycles)
		}
	}
}

// TestAblationSearchAllocTradeoff pins the Section 4.2 trade-off as
// measured: the searching allocator eliminates the ping-pong pathology
// (see TestSearchAllocAvoidsPingPong in core) and reduces transfers
// when windows are plentiful, but at tight window counts its scattered
// placements fragment the file and can lose to simple packing — one
// reason the paper "only considered the simple allocation scheme".
func TestAblationSearchAllocTradeoff(t *testing.T) {
	rows := RunAblationSearchAlloc(testSizes, []int{16, 24})
	for _, a := range rows {
		if a.Windows >= 24 && a.SearchSpills > a.SimpleSpills {
			t.Errorf("windows=%d: search allocation spilled more (%d) than simple (%d) despite ample windows",
				a.Windows, a.SearchSpills, a.SimpleSpills)
		}
	}
}

// TestAblationRestoreEmulationSmall pins Section 4.3's claim that the
// emulation overhead is small.
func TestAblationRestoreEmulationSmall(t *testing.T) {
	for _, a := range RunAblationRestoreEmulation(testSizes, 6) {
		if a.UnderflowTraps == 0 {
			t.Errorf("%v: no underflow traps at 6 windows — scenario broken", a.Scheme)
		}
		if frac := float64(a.EmulationCost) / float64(a.TotalCycles); frac > 0.01 {
			t.Errorf("%v: restore emulation is %.2f%% of runtime, want < 1%%", a.Scheme, 100*frac)
		}
	}
}

// TestRenderers smoke-tests the text output paths.
func TestRenderers(t *testing.T) {
	var sb strings.Builder
	RunTable1(testSizes).Render(&sb)
	if !strings.Contains(sb.String(), "T6 (dict1)") {
		t.Error("Table 1 rendering lacks thread rows")
	}
	sb.Reset()
	RenderTable2(&sb, RunTable2())
	if strings.Contains(sb.String(), "NO") {
		t.Errorf("Table 2 rendering reports out-of-range rows:\n%s", sb.String())
	}
	sb.Reset()
	fig := RunFig11With(testSizes, []int{4, 8}, RunSerial)
	fig.Render(&sb)
	if !strings.Contains(sb.String(), "windows") {
		t.Error("figure rendering lacks header")
	}
	for _, lbl := range fig.SeriesLabels() {
		if !strings.Contains(sb.String(), lbl) {
			t.Errorf("figure rendering lacks series %s", lbl)
		}
	}
}

// TestBehaviorByName pins the lookup helper.
func TestBehaviorByName(t *testing.T) {
	for _, b := range Behaviors {
		got, ok := BehaviorByName(b.Name)
		if !ok || got.M != b.M || got.N != b.N {
			t.Errorf("BehaviorByName(%q) = %+v, %v", b.Name, got, ok)
		}
	}
	if _, ok := BehaviorByName("nope"); ok {
		t.Error("BehaviorByName(nope) succeeded")
	}
}

// TestResultChecksum pins that every behaviour reports the same
// misspelling count — the pipeline's output is workload-determined.
func TestResultChecksum(t *testing.T) {
	var want int
	for i, b := range Behaviors {
		r := CellSpec{Scheme: core.SchemeSNP, Windows: 8, Policy: sched.WorkingSet, Behavior: b, Sizes: testSizes}.Run()
		if i == 0 {
			want = r.Misspelled
			if want == 0 {
				t.Fatal("no misspellings found")
			}
			continue
		}
		if r.Misspelled != want {
			t.Errorf("%s reported %d misspellings, want %d", b.Name, r.Misspelled, want)
		}
	}
	_ = fmt.Sprint(want)
}

// TestRunSpellWithBudgetLeavesNoGoroutines pins teardown through the
// harness: a spell run stopped by a tiny cycle budget, with its seven
// threads blocked on streams, mid-call or never started, leaves no
// guest goroutine behind.
func TestRunSpellWithBudgetLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, s := range core.Schemes {
		for _, budget := range []uint64{500, 20_000, 200_000} {
			_, err := RunSpellWith(SpellOpts{
				Config: core.Config{Windows: 6},
				Scheme: s, Policy: sched.FIFO, Behavior: Behaviors[0], Sizes: testSizes,
				MaxCycles: budget,
			})
			var b *fault.BudgetError
			if !errors.As(err, &b) {
				t.Fatalf("%v with budget %d returned %v, want *fault.BudgetError", s, budget, err)
			}
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Errorf("%d goroutines before the runs, %d after: guest goroutines outlived Run", before, n)
	}
}

// TestWorkloadCacheBounded loads more distinct corpus sizes than the
// cache holds, touching one size between loads: the cache must stay
// within its bound and keep answering the touched size with the same
// corpus.
func TestWorkloadCacheBounded(t *testing.T) {
	hot := Sizes{Draft: 600, Dict: 901}
	w := loadWorkload(hot)
	for i := 1; i <= 3*maxWorkloads; i++ {
		loadWorkload(Sizes{Draft: 600 + i, Dict: 901 + i})
		if loadWorkload(hot) != w {
			t.Fatalf("after %d other sizes, the touched size was regenerated", i)
		}
	}
	workloadsMu.Lock()
	n := len(workloads)
	workloadsMu.Unlock()
	if n > maxWorkloads {
		t.Errorf("corpus cache holds %d sizes, bound %d", n, maxWorkloads)
	}
}
