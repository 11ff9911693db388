// Package harness runs the paper's experiments: the program-behaviour
// characterisation of Table 1, the context-switch cost measurement of
// Table 2, and the performance sweeps of Figures 11 through 15, plus
// the ablations of the Section 4 design choices. Each experiment returns
// structured results and can render itself as a text table; cmd/winsim
// and the repository benchmarks are thin wrappers around this package.
package harness

import (
	"sync"

	"cyclicwin/internal/core"
	"cyclicwin/internal/corpus"
	"cyclicwin/internal/fault"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/spell"
	"cyclicwin/internal/stats"
)

// Sizes selects the workload scale.
type Sizes struct {
	Draft int
	Dict  int
}

// FullSizes is the paper's workload: the 40,500-byte draft and 50,001
// bytes per dictionary.
var FullSizes = Sizes{Draft: corpus.DraftSize, Dict: corpus.DictSize}

// QuickSizes is a reduced workload for fast iteration and -short test
// runs; all qualitative shapes survive the scaling.
var QuickSizes = Sizes{Draft: 8000, Dict: 10001}

// Behavior is one of the six program behaviours of Table 1: a
// concurrency level (set by the ratio M/N) and a granularity level (set
// by min(M,N)).
type Behavior struct {
	Name        string
	Concurrency string // "high" or "low"
	Granularity string // "fine", "medium" or "coarse"
	M, N        int
}

// Behaviors are the six evaluated behaviours. High concurrency uses
// M=N; low concurrency uses M=1024 >> N (derived from Table 1: the
// dictionary threads T6/T7 suspend 50001, 12501 and 3126 times at high
// concurrency — M = 1, 4, 16 — and 49 times in every low-concurrency
// case — M = 1024).
var Behaviors = []Behavior{
	{"high-fine", "high", "fine", 1, 1},
	{"high-medium", "high", "medium", 4, 4},
	{"high-coarse", "high", "coarse", 16, 16},
	{"low-fine", "low", "fine", 1024, 1},
	{"low-medium", "low", "medium", 1024, 4},
	{"low-coarse", "low", "coarse", 1024, 16},
}

// BehaviorByName returns the named behaviour.
func BehaviorByName(name string) (Behavior, bool) {
	for _, b := range Behaviors {
		if b.Name == name {
			return b, true
		}
	}
	return Behavior{}, false
}

// WindowCounts is the sweep range of the figures (4 to 32 windows).
var WindowCounts = []int{4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 28, 32}

// Result is the outcome of one spell-checker run.
type Result struct {
	Scheme   core.Scheme
	Windows  int
	Policy   sched.Policy
	Behavior Behavior

	// Cycles is the simulated execution time.
	Cycles uint64
	// Counters are the machine-wide event counts.
	Counters stats.Counters
	// ThreadSuspensions holds per-thread context-switch counts in
	// paper order T1..T7.
	ThreadSuspensions [7]uint64
	// Misspelled is the number of reported words (an output checksum).
	Misspelled int
}

// workload caches generated corpora per size so sweeps do not pay
// regeneration for every run. The byte slices are read-only after
// generation, so one workload may back any number of concurrent
// simulations; only the map itself needs the lock.
type workload struct {
	source, main, forbidden []byte
	used                    uint64 // workloadTick at the last load
}

// maxWorkloads bounds the corpus cache: clients of the service choose
// the sizes, and an entry at the largest size they may ask for holds
// about 3 MB. The least recently loaded entry makes room for a new
// one; a sweep uses one size, so the sizes in use stay resident.
const maxWorkloads = 4

var (
	workloadsMu  sync.Mutex
	workloads    = map[Sizes]*workload{}
	workloadTick uint64
)

func loadWorkload(sz Sizes) *workload {
	workloadsMu.Lock()
	defer workloadsMu.Unlock()
	workloadTick++
	w, ok := workloads[sz]
	if !ok {
		if len(workloads) == maxWorkloads {
			var lru Sizes
			oldest := workloadTick
			for s, c := range workloads {
				if c.used < oldest {
					lru, oldest = s, c.used
				}
			}
			delete(workloads, lru)
		}
		w = &workload{
			source:    corpus.ScaledDraft(sz.Draft),
			main:      corpus.ScaledMainDict(sz.Dict),
			forbidden: corpus.ScaledForbiddenDict(sz.Dict),
		}
		workloads[sz] = w
	}
	w.used = workloadTick
	return w
}

// CellSpec identifies one simulation cell of a sweep: a (scheme,
// windows, policy, behaviour, sizes) point. Cells are independent and
// deterministic, so a batch may be executed in any order, concurrently,
// or answered from a cache, as long as the results come back in batch
// order.
type CellSpec struct {
	Scheme   core.Scheme
	Windows  int
	Policy   sched.Policy
	Behavior Behavior
	Sizes    Sizes

	// T3-scale fields, all defaulting to the classic spell cell.
	// Threads > 0 selects the chain pipeline workload with that many
	// threads instead of the seven-thread spell checker; Cores > 1
	// models that many window files; Quantum arms preemptive
	// time-slicing; MigrateEvery arms deterministic migration (see
	// sched.Kernel.SetMigrateEvery).
	Threads      int
	Cores        int
	Quantum      uint64
	MigrateEvery int
}

// Run executes the cell in the calling goroutine.
func (c CellSpec) Run() Result {
	if c.Threads > 0 {
		return RunT3(c)
	}
	return mustSpell(c.SpellOpts())
}

// SpellOpts maps a spell-checker cell (Threads == 0) onto the options
// RunSpellWith runs it with; callers that add a watchdog, chaos or a
// tracer start from it so no cell field is dropped on their path.
func (c CellSpec) SpellOpts() SpellOpts {
	return SpellOpts{
		Config: core.Config{Windows: c.Windows},
		Scheme: c.Scheme, Policy: c.Policy, Behavior: c.Behavior, Sizes: c.Sizes,
		Quantum: c.Quantum,
	}
}

// Runner executes a batch of sweep cells and returns their results in
// the same order. RunSerial is the in-process default;
// internal/simsvc provides a pool-backed concurrent implementation
// with result caching. Because every cell is deterministic, any
// correct Runner produces byte-identical figures.
type Runner func(cells []CellSpec) []Result

// RunSerial executes the cells one after another in the calling
// goroutine — the behaviour all sweeps had before runners existed.
func RunSerial(cells []CellSpec) []Result {
	out := make([]Result, len(cells))
	for i, c := range cells {
		out[i] = c.Run()
	}
	return out
}

// SpellOpts parameterises RunSpellWith, the one way a spell-checker
// run is built: the machine configuration (ablation knobs, the
// activity recorder), the cycle-budget watchdog, time-slicing, the
// chaos injector and hooks onto the manager and the kernel.
type SpellOpts struct {
	Config   core.Config
	Scheme   core.Scheme
	Policy   sched.Policy
	Behavior Behavior
	Sizes    Sizes

	// MaxCycles arms the kernel's cycle-budget watchdog (0 = off).
	MaxCycles uint64
	// Quantum arms preemptive time-slicing (0 = the paper's
	// non-preemptive scheduling).
	Quantum uint64
	// Chaos, when non-nil, is attached to the kernel's perturbation
	// points before the run.
	Chaos *fault.Injector
	// OnManager, when non-nil, receives the constructed window manager
	// before the run starts; the chaos suite uses it to hook invariant
	// checks onto injector firings, the observability layer to attach
	// an event tracer.
	OnManager func(core.Manager)
	// OnKernel, when non-nil, receives the kernel after the workload's
	// threads are spawned and before the run starts; the observability
	// layer uses it to label thread ids in exported traces, the flush
	// ablation to mark every thread for the flushing switch.
	OnKernel func(*sched.Kernel)
}

// RunSpellWith executes one spell-checker run with watchdog and chaos
// control, returning the structured result or the failure (guest
// fault, deadlock diagnostic, budget exhaustion, invalid stream size).
func RunSpellWith(o SpellOpts) (Result, error) {
	w := loadWorkload(o.Sizes)
	cfg := o.Config
	mgr := core.New(o.Scheme, cfg)
	k := sched.NewKernel(mgr, o.Policy)
	if o.MaxCycles > 0 {
		k.SetMaxCycles(o.MaxCycles)
	}
	if o.Quantum > 0 {
		k.SetQuantum(o.Quantum)
	}
	if o.Chaos != nil {
		k.SetChaos(o.Chaos)
	}
	if o.OnManager != nil {
		o.OnManager(mgr)
	}
	b := o.Behavior
	p, err := spell.New(k, spell.Config{
		M: b.M, N: b.N,
		Source: w.source, MainDict: w.main, ForbiddenDict: w.forbidden,
	})
	if err != nil {
		return Result{}, err
	}
	if o.OnKernel != nil {
		o.OnKernel(k)
	}
	if err := k.Run(); err != nil {
		return Result{}, err
	}

	r := Result{
		Scheme:   o.Scheme,
		Windows:  cfg.Windows,
		Policy:   o.Policy,
		Behavior: b,
		Cycles:   mgr.Cycles().Total(),
		Counters: *mgr.Counters(),
	}
	for i, t := range p.Threads() {
		r.ThreadSuspensions[i] = t.Stats().Suspensions
	}
	r.Misspelled = len(p.Misspelled())
	return r, nil
}

// mustSpell runs a spell cell of the harness's own experiments, whose
// behaviours and workload cannot fail: a failure is a harness bug and
// panics.
func mustSpell(o SpellOpts) Result {
	r, err := RunSpellWith(o)
	if err != nil {
		panic(err)
	}
	return r
}
