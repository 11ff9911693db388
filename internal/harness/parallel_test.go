package harness

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/sched"
)

// These tests pin the property internal/simsvc is built on: a
// simulation is a pure function of its parameters, sharing no mutable
// globals with concurrent simulations. Run with -race (CI does) they
// double as the data-race proof for the workload cache and everything
// below it.

var parSizes = Sizes{Draft: 2000, Dict: 3001}

// TestParallelRunsIdentical runs the same full spell-checker
// simulation in parallel goroutines and requires every result —
// cycles, all counters, per-thread suspensions, output checksum — to
// be identical to the serial run.
func TestParallelRunsIdentical(t *testing.T) {
	golden := CellSpec{Scheme: core.SchemeSP, Windows: 8, Policy: sched.FIFO, Behavior: Behaviors[0], Sizes: parSizes}.Run()

	const n = 4
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = CellSpec{Scheme: core.SchemeSP, Windows: 8, Policy: sched.FIFO, Behavior: Behaviors[0], Sizes: parSizes}.Run()
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if !reflect.DeepEqual(r, golden) {
			t.Errorf("parallel run %d differs from serial golden:\n got %+v\nwant %+v", i, r, golden)
		}
	}
}

// TestParallelDistinctCellsIdentical runs every scheme concurrently —
// each simulation constructs its own machine, kernel and pipeline —
// and requires each to match its serial twin.
func TestParallelDistinctCellsIdentical(t *testing.T) {
	goldens := make(map[core.Scheme]Result)
	for _, s := range core.Schemes {
		goldens[s] = CellSpec{Scheme: s, Windows: 6, Policy: sched.FIFO, Behavior: Behaviors[1], Sizes: parSizes}.Run()
	}

	results := make(map[core.Scheme]Result)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range core.Schemes {
		wg.Add(1)
		go func(s core.Scheme) {
			defer wg.Done()
			r := CellSpec{Scheme: s, Windows: 6, Policy: sched.FIFO, Behavior: Behaviors[1], Sizes: parSizes}.Run()
			mu.Lock()
			results[s] = r
			mu.Unlock()
		}(s)
	}
	wg.Wait()

	for _, s := range core.Schemes {
		if !reflect.DeepEqual(results[s], goldens[s]) {
			t.Errorf("%s: concurrent run differs from serial run", s)
		}
	}
}

// TestParallelTable1ByteIdentical renders Table 1 — six full
// spell-checker simulations each — from two concurrent goroutines and
// requires byte-identical text.
func TestParallelTable1ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve simulations")
	}
	render := func() []byte {
		var buf bytes.Buffer
		RunTable1(parSizes).Render(&buf)
		return buf.Bytes()
	}
	var a, b []byte
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a = render() }()
	go func() { defer wg.Done(); b = render() }()
	wg.Wait()
	if !bytes.Equal(a, b) {
		t.Errorf("concurrent Table 1 renders differ:\n%s\n----\n%s", a, b)
	}
}

// TestSweepRunnerOrderIndependent pins that sweep figures do not
// depend on cell execution order: a runner that executes the batch
// back-to-front produces the same figure as the serial front-to-back
// one.
func TestSweepRunnerOrderIndependent(t *testing.T) {
	reversed := func(cells []CellSpec) []Result {
		out := make([]Result, len(cells))
		for i := len(cells) - 1; i >= 0; i-- {
			out[i] = cells[i].Run()
		}
		return out
	}
	windows := []int{4, 6}
	serial := RunFig11With(parSizes, windows, RunSerial)
	shuffled := RunFig11With(parSizes, windows, reversed)
	if !reflect.DeepEqual(serial, shuffled) {
		t.Errorf("figure depends on cell execution order:\n%+v\nvs\n%+v", serial, shuffled)
	}

	var sCSV, rCSV bytes.Buffer
	if err := serial.WriteCSV(&sCSV); err != nil {
		t.Fatal(err)
	}
	if err := shuffled.WriteCSV(&rCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sCSV.Bytes(), rCSV.Bytes()) {
		t.Error("CSV output depends on cell execution order")
	}
}
