//go:build !race

package harness

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/stats"
)

// workPinPath holds the simulated work of the benchmark's two
// simulation workloads (perfbench's figures and t3-scale). Regenerate it
// with UPDATE_PIN=1 only for a change that moves a count or the
// allocations of a cell on purpose, and say why in the commit.
const workPinPath = "testdata/work_pin.json"

// workPin is one workload's work: its distinct cells, every scalar of
// stats.Counters summed over them, and the heap allocations per cell.
type workPin struct {
	Cells         int               `json:"cells"`
	Counters      map[string]uint64 `json:"counters"`
	AllocsPerCell float64           `json:"allocs_per_cell"`
}

// pinAllocTolerance is how far allocations per cell may drift from the
// pin: the counts repeat exactly, allocations within a fraction of a
// percent.
const pinAllocTolerance = 0.05

// pinWorkloads sweep the benchmark's cells through a Runner: fig11–15
// at quick sizes over the golden's window counts, and the t3threads and
// t3migration figures at 32 windows.
var pinWorkloads = []struct {
	name  string
	sweep func(Runner)
}{
	{"figures", func(run Runner) {
		for _, fig := range []func(Sizes, []int, Runner) Figure{
			RunFig11With, RunFig12With, RunFig13With, RunFig14With, RunFig15With,
		} {
			fig(QuickSizes, []int{4, 6, 8, 16, 32}, run)
		}
	}},
	{"t3-scale", func(run Runner) {
		RunCrossoverThreadsWith(QuickSizes, 32, ThreadCounts, run)
		RunCrossoverMigrationWith(QuickSizes, 32, 128, MigrationRates, run)
	}},
}

// measureWork runs each distinct cell of the sweep once, as the
// service's cache does for a figures pass, and returns the work done.
func measureWork(sweep func(Runner)) workPin {
	done := map[CellSpec]Result{}
	var sum stats.Counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	sweep(func(cells []CellSpec) []Result {
		out := make([]Result, len(cells))
		for i, c := range cells {
			r, ok := done[c]
			if !ok {
				r = c.Run()
				done[c] = r
				sum.Add(&r.Counters)
			}
			out[i] = r
		}
		return out
	})
	runtime.ReadMemStats(&ms)
	pin := workPin{Cells: len(done), Counters: map[string]uint64{}}
	pin.AllocsPerCell = math.Round(float64(ms.Mallocs-mallocs) / float64(pin.Cells))
	v := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Uint64 {
			pin.Counters[v.Type().Field(i).Name] = f.Uint()
		}
	}
	return pin
}

// TestWorkPin pins the deterministic work of the benchmark's simulation
// workloads: the cell count and every summed counter exactly, and heap
// allocations per cell within pinAllocTolerance. Unlike a time floor it
// cannot flake with host load, and it catches a change that makes a
// cell do more simulated or host work. It has no wall-time bound:
// go test runs package binaries in parallel. The race detector's
// instrumentation allocates, so the file is left out of -race builds.
func TestWorkPin(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweeps; skipped in -short mode")
	}
	defer core.SetInvariantChecks(core.InvariantChecksEnabled())
	core.SetInvariantChecks(false)
	loadWorkload(QuickSizes) // generate the corpus outside the measurement

	got := map[string]workPin{}
	for _, w := range pinWorkloads {
		got[w.name] = measureWork(w.sweep)
	}
	if os.Getenv("UPDATE_PIN") == "1" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workPinPath, append(b, '\n'), 0o644); err != nil {
			t.Fatalf("updating the work pin: %v", err)
		}
		t.Log("work pin rewritten; review the diff and say in the commit why the work moved")
		return
	}
	b, err := os.ReadFile(workPinPath)
	if err != nil {
		t.Fatalf("reading the work pin: %v", err)
	}
	var want map[string]workPin
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("decoding %s: %v", workPinPath, err)
	}
	for _, w := range pinWorkloads {
		g, p := got[w.name], want[w.name]
		if g.Cells != p.Cells {
			t.Errorf("%s: %d distinct cells, pinned %d", w.name, g.Cells, p.Cells)
		}
		if !reflect.DeepEqual(g.Counters, p.Counters) {
			t.Errorf("%s: summed counters\n got  %v\n pinned %v", w.name, g.Counters, p.Counters)
		}
		if math.Abs(g.AllocsPerCell-p.AllocsPerCell) > pinAllocTolerance*p.AllocsPerCell {
			t.Errorf("%s: %.0f heap allocations per cell, pinned %.0f ± %.0f%%",
				w.name, g.AllocsPerCell, p.AllocsPerCell, 100*pinAllocTolerance)
		}
	}
}
