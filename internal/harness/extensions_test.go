package harness

import (
	"strings"
	"testing"

	"cyclicwin/internal/core"
)

// TestActivityMatchesSection5 pins the paper's Section 5 reasoning on
// measured numbers:
//
//   - window activity per thread decreases as granularity becomes finer
//     (both concurrency levels);
//   - total window activity decreases with finer granularity;
//   - the low-concurrency behaviours switch far less often than their
//     high-concurrency counterparts (the granularity side of Table 1).
func TestActivityMatchesSection5(t *testing.T) {
	rows := RunActivity(testSizes)
	byName := map[string]ActivityRow{}
	for _, r := range rows {
		byName[r.Behavior.Name] = r
	}
	for _, conc := range []string{"high", "low"} {
		fine, med, coarse := byName[conc+"-fine"], byName[conc+"-medium"], byName[conc+"-coarse"]
		if !(fine.PerThread <= med.PerThread && med.PerThread <= coarse.PerThread) {
			t.Errorf("%s: per-thread activity not monotone in granularity: %.2f, %.2f, %.2f",
				conc, fine.PerThread, med.PerThread, coarse.PerThread)
		}
		if !(fine.Total <= med.Total && med.Total <= coarse.Total) {
			t.Errorf("%s: total activity not monotone in granularity: %.2f, %.2f, %.2f",
				conc, fine.Total, med.Total, coarse.Total)
		}
		if !(fine.Switches > med.Switches && med.Switches > coarse.Switches) {
			t.Errorf("%s: switches not monotone: %d, %d, %d", conc, fine.Switches, med.Switches, coarse.Switches)
		}
	}
	// Sanity: per-thread activity is at least one window.
	for _, r := range rows {
		if r.PerThread < 1 {
			t.Errorf("%s: per-thread activity %.2f < 1", r.Behavior.Name, r.PerThread)
		}
	}
}

// TestTailDistributions pins the structural latency claims: SP has the
// lowest median (its zero-transfer best case) and a worst case bounded
// by its 2-save+1-restore row of Table 2; NS's median equals its
// 1-save+1-restore minimum.
func TestTailDistributions(t *testing.T) {
	rows := RunTail(testSizes, 8)
	by := map[core.Scheme]TailRow{}
	for _, r := range rows {
		by[r.Scheme] = r
	}
	if got := by[core.SchemeSP].P50; got > 98 {
		t.Errorf("SP median switch = %d, want the zero-transfer best case (<= 98)", got)
	}
	if got := by[core.SchemeSP].Max; got > 237 {
		t.Errorf("SP worst case = %d cycles, must stay within its Table 2 bound 237", got)
	}
	if got := by[core.SchemeNS].Min(); got < 145 {
		t.Errorf("NS best case = %d, below its Table 2 minimum 145", got)
	}
	if by[core.SchemeSP].Mean >= by[core.SchemeNS].Mean {
		t.Errorf("SP mean (%.1f) not below NS mean (%.1f)", by[core.SchemeSP].Mean, by[core.SchemeNS].Mean)
	}
}

// Min is a helper on TailRow for tests (the minimum equals the p50 of a
// distribution dominated by its best case or below).
func (r TailRow) Min() uint64 {
	if r.P50 < r.P99 {
		return r.P50
	}
	return r.P99
}

// TestTransferSweepShapes pins the Tamir/Sequin-style sweep: deeper
// transfers reduce trap counts per spill but move at least as many
// windows, and the depth-1 or depth-2 configurations are never beaten
// by depth 4 by more than noise.
func TestTransferSweepShapes(t *testing.T) {
	rows := RunTransferSweep(testSizes, 8, []int{1, 2, 4})
	type key struct {
		s core.Scheme
		k int
	}
	by := map[key]TransferRow{}
	for _, r := range rows {
		by[key{r.Scheme, r.Transfer}] = r
	}
	for _, s := range core.Schemes {
		k1, k4 := by[key{s, 1}], by[key{s, 4}]
		if k4.Moved < k1.Moved {
			t.Errorf("%v: transfer=4 moved fewer windows (%d) than transfer=1 (%d)", s, k4.Moved, k1.Moved)
		}
		best := k1.Cycles
		if by[key{s, 2}].Cycles < best {
			best = by[key{s, 2}].Cycles
		}
		if float64(k4.Cycles) < 0.98*float64(best) {
			t.Errorf("%v: transfer=4 (%d cycles) beat shallow transfers (%d) by more than noise",
				s, k4.Cycles, best)
		}
	}
}

// TestHWProjection pins the paper's Conclusion 3 on measured numbers:
// under the hardware-assisted cost model the SP scheme's average
// context switch collapses to a few cycles once windows suffice, and
// every scheme gets strictly faster (transfers keep their cost, so the
// gain is bounded).
func TestHWProjection(t *testing.T) {
	rows := RunHWProjection(testSizes, []int{8, 32})
	for _, r := range rows {
		if r.Hardware >= r.Software {
			t.Errorf("%v w%d: hardware (%d) not faster than software (%d)",
				r.Scheme, r.Windows, r.Hardware, r.Software)
		}
		if r.Scheme == core.SchemeSP && r.Windows == 32 {
			if r.HWAvgSw > 8 {
				t.Errorf("hardware SP average switch = %.1f cycles, want a few (the paper's claim)", r.HWAvgSw)
			}
		}
	}
}

// TestExtensionRenderers smoke-tests the text output.
func TestExtensionRenderers(t *testing.T) {
	var sb strings.Builder
	RenderActivity(&sb, RunActivity(testSizes))
	if !strings.Contains(sb.String(), "total activity") {
		t.Error("activity rendering lacks header")
	}
	sb.Reset()
	RenderTail(&sb, RunTail(testSizes, 8))
	if !strings.Contains(sb.String(), "p99") {
		t.Error("tail rendering lacks header")
	}
	sb.Reset()
	RenderTransferSweep(&sb, RunTransferSweep(testSizes, 8, []int{1}), 8)
	if !strings.Contains(sb.String(), "transfer") {
		t.Error("transfer rendering lacks header")
	}
	sb.Reset()
	RenderHWProjection(&sb, RunHWProjection(testSizes, []int{8}))
	if !strings.Contains(sb.String(), "hardware") {
		t.Error("hw rendering lacks header")
	}
}

// TestFigureCSV pins the CSV escape hatch.
func TestFigureCSV(t *testing.T) {
	fig := RunFig12With(testSizes, []int{4, 8}, RunSerial)
	var sb strings.Builder
	if err := fig.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "windows,NS/fine") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "\n4,") || !strings.Contains(out, "\n8,") {
		t.Errorf("CSV rows missing:\n%s", out)
	}
}
