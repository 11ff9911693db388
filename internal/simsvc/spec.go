// Package simsvc turns the repository's deterministic simulations into
// a schedulable, cacheable, servable workload: a canonical job
// specification with a stable content hash, a worker pool that executes
// any set of jobs concurrently with per-job timeouts and panic
// isolation, a content-addressed result cache (in-memory LRU plus an
// optional on-disk JSON store), and an HTTP front-end (cmd/winsimd).
//
// Every simulation in this repository is a pure function of its
// parameters, which is what makes the whole package sound: a JobSpec
// hash identifies its result forever, concurrent execution cannot
// change any answer, and a cache never goes stale.
package simsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"cyclicwin/internal/core"
	"cyclicwin/internal/corpus"
	"cyclicwin/internal/harness"
	"cyclicwin/internal/obs"
	"cyclicwin/internal/regwin"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/stats"
)

// MaxThreads and MaxCores bound the T3 cell admission: far above any
// experiment here, far below anything that could stall the service.
// MaxTextBytes bounds the draft and dictionary sizes of every spec at
// about 25 times the paper's 40,500-byte draft, so one request cannot
// make the service generate gigabytes of corpus text.
const (
	MaxThreads   = 1024
	MaxCores     = 64
	MaxTextBytes = 1 << 20
)

// ExperimentCell is the experiment name of a single simulation cell —
// one (scheme, windows, policy, behaviour, sizes) spell-checker run,
// the unit the figure sweeps are made of.
const ExperimentCell = "cell"

// JobSpec is the canonical description of one simulation job. Either a
// single cell (Experiment == ExperimentCell, using the cell fields) or
// a named experiment from the catalog (table1, table2, fig11..fig15,
// ablation, activity, tail, transfer, hw), which renders the full
// table/figure. The zero values of optional fields mean "the default",
// and Normalize folds every spelling of the default onto one canonical
// form so that equivalent specs hash identically.
type JobSpec struct {
	// Experiment is ExperimentCell or a catalog experiment name.
	Experiment string `json:"experiment"`

	// Cell parameters (Experiment == ExperimentCell only).
	Scheme   string `json:"scheme,omitempty"`   // NS, SNP or SP
	Windows  int    `json:"windows,omitempty"`  // 2..regwin.MaxWindows
	Policy   string `json:"policy,omitempty"`   // FIFO (default) or WS
	Behavior string `json:"behavior,omitempty"` // e.g. high-fine (see harness.Behaviors)

	// Workload scale. Zero means the quick sizes; Full selects the
	// paper's exact input sizes and is folded into Draft/Dict by
	// Normalize.
	Draft int  `json:"draft,omitempty"`
	Dict  int  `json:"dict,omitempty"`
	Full  bool `json:"full,omitempty"`

	// WindowList is the sweep range for figure experiments; empty
	// means the paper's 4..32 sweep. Ignored by cells (use Windows).
	WindowList []int `json:"window_list,omitempty"`

	// Extension knobs (cells only; see core.Config).
	SearchAlloc  bool `json:"search_alloc,omitempty"`
	HWAssist     bool `json:"hw_assist,omitempty"`
	TrapTransfer int  `json:"trap_transfer,omitempty"` // 0 and 1 both mean one window

	// MaxCycles arms the kernel's cycle-budget watchdog for this cell
	// (0 = off; cells only). A cell exceeding the budget fails with a
	// diagnostic wrapping ErrGuestFault instead of running forever.
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	// Trace records the cell's window-management events into a bounded
	// ring returned in the job result and served as a Chrome trace on
	// GET /v1/jobs/{id}/trace (cells only; named experiments ignore
	// it). The hook only observes: traced and untraced runs produce
	// identical simulation results.
	Trace bool `json:"trace,omitempty"`

	// T3-scale cell knobs (cells only; see harness.CellSpec). Threads >
	// 0 selects the chain pipeline workload instead of the spell
	// checker; Cores > 1 simulates that many window files with
	// migration; Quantum arms preemptive time-slicing (also valid for
	// spell cells); MigrateEvery forces a migration every n-th dispatch.
	Threads      int    `json:"threads,omitempty"`
	Cores        int    `json:"cores,omitempty"`
	Quantum      uint64 `json:"quantum,omitempty"`
	MigrateEvery int    `json:"migrate_every,omitempty"`
}

// Normalize returns the spec with every default spelled canonically:
// Full folded into Draft/Dict, empty sizes replaced by the quick
// sizes, the default policy written as FIFO, TrapTransfer 1 folded to
// 0, and a nil window list for cells. Hash and the cache key are
// defined over the normalized form.
func (s JobSpec) Normalize() JobSpec {
	if s.Full {
		s.Draft, s.Dict = harness.FullSizes.Draft, harness.FullSizes.Dict
		s.Full = false
	}
	if s.Draft == 0 {
		s.Draft = harness.QuickSizes.Draft
	}
	if s.Dict == 0 {
		s.Dict = harness.QuickSizes.Dict
	}
	if s.Experiment == ExperimentCell {
		if s.Policy == "" {
			s.Policy = sched.FIFO.String()
		}
		if s.TrapTransfer == 1 {
			s.TrapTransfer = 0
		}
		s.WindowList = nil
		if s.Threads > 0 {
			// T3 chain cells ignore the spell-only knobs; fold them
			// away so equivalent specs hash identically.
			s.Behavior = ""
			s.SearchAlloc, s.HWAssist, s.TrapTransfer = false, false, 0
			s.MaxCycles = 0
			s.Trace = false
			if s.Cores == 1 {
				s.Cores = 0 // one core is the plain kernel
			}
		} else {
			// Multi-core and migration exist only for T3 cells.
			s.Cores, s.MigrateEvery = 0, 0
		}
		if s.MigrateEvery > 0 && s.Cores == 0 {
			s.MigrateEvery = 0 // nowhere to migrate on one core
		}
	} else {
		// Cell-only fields cannot influence a named experiment.
		s.Scheme, s.Windows, s.Policy, s.Behavior = "", 0, "", ""
		s.SearchAlloc, s.HWAssist, s.TrapTransfer = false, false, 0
		s.MaxCycles = 0
		s.Trace = false
		s.Threads, s.Cores, s.Quantum, s.MigrateEvery = 0, 0, 0, 0
		if len(s.WindowList) == 0 {
			s.WindowList = append([]int(nil), harness.WindowCounts...)
		}
	}
	return s
}

// Validate reports whether the normalized spec names a runnable job.
func (s JobSpec) Validate() error {
	s = s.Normalize()
	if s.Draft < corpus.MinDraftSize || s.Draft > MaxTextBytes {
		return fmt.Errorf("simsvc: draft %d out of range %d..%d", s.Draft, corpus.MinDraftSize, MaxTextBytes)
	}
	if s.Dict < 0 || s.Dict > MaxTextBytes {
		return fmt.Errorf("simsvc: dict %d out of range 0..%d", s.Dict, MaxTextBytes)
	}
	if s.Experiment == ExperimentCell {
		if _, ok := schemeByName(s.Scheme); !ok {
			return fmt.Errorf("simsvc: unknown scheme %q (want NS, SNP or SP)", s.Scheme)
		}
		if s.Windows < 2 || s.Windows > regwin.MaxWindows {
			return fmt.Errorf("simsvc: windows %d out of range 2..%d", s.Windows, regwin.MaxWindows)
		}
		if _, ok := policyByName(s.Policy); !ok {
			return fmt.Errorf("simsvc: unknown policy %q (want FIFO, WS or PRIO)", s.Policy)
		}
		if s.Threads == 0 {
			if _, ok := harness.BehaviorByName(s.Behavior); !ok {
				return fmt.Errorf("simsvc: unknown behavior %q", s.Behavior)
			}
		}
		if s.Threads < 0 || s.Threads == 1 || s.Threads > MaxThreads {
			return fmt.Errorf("simsvc: threads %d out of range 2..%d", s.Threads, MaxThreads)
		}
		if s.Cores < 0 || s.Cores > MaxCores {
			return fmt.Errorf("simsvc: cores %d out of range 0..%d", s.Cores, MaxCores)
		}
		if s.MigrateEvery < 0 {
			return fmt.Errorf("simsvc: negative migrate_every %d", s.MigrateEvery)
		}
		if s.TrapTransfer < 0 || s.TrapTransfer > 32 {
			return fmt.Errorf("simsvc: trap_transfer %d out of range 0..32", s.TrapTransfer)
		}
		return nil
	}
	if _, ok := LookupExperiment(s.Experiment); !ok {
		return fmt.Errorf("simsvc: unknown experiment %q", s.Experiment)
	}
	for _, n := range s.WindowList {
		if n < 2 || n > regwin.MaxWindows {
			return fmt.Errorf("simsvc: window count %d out of range 2..%d", n, regwin.MaxWindows)
		}
	}
	return nil
}

// Hash is the stable content address of the job: a SHA-256 over a
// versioned, field-ordered rendering of the normalized spec. Two specs
// that describe the same simulation hash identically; any semantic
// difference produces a different hash.
func (s JobSpec) Hash() string {
	n := s.Normalize()
	h := sha256.New()
	// v4: the T3-scale cell fields (threads/cores/quantum/migration)
	// joined the spec and cell results gained the migration and
	// preemption counters — the version bump makes every pre-v4 cache
	// entry unreachable rather than shaped wrong.
	fmt.Fprintf(h, "simsvc-spec-v4|exp=%s|scheme=%s|windows=%d|policy=%s|behavior=%s|draft=%d|dict=%d|wl=%v|search=%t|hw=%t|tt=%d|mc=%d|trace=%t|threads=%d|cores=%d|quantum=%d|migrate=%d",
		n.Experiment, n.Scheme, n.Windows, n.Policy, n.Behavior,
		n.Draft, n.Dict, n.WindowList, n.SearchAlloc, n.HWAssist, n.TrapTransfer, n.MaxCycles, n.Trace,
		n.Threads, n.Cores, n.Quantum, n.MigrateEvery)
	return hex.EncodeToString(h.Sum(nil))
}

// Sizes returns the workload scale of the normalized spec.
func (s JobSpec) Sizes() harness.Sizes {
	n := s.Normalize()
	return harness.Sizes{Draft: n.Draft, Dict: n.Dict}
}

// EstimateCost is the admission-control size estimate of the job:
// threads x windows x text length, the quantities that drive simulated
// work. It is deliberately a unit-free heuristic — only ratios between
// jobs matter to the cost-aware shedding tier — and it is computed from
// the spec alone, before anything runs. The spell workload always
// schedules 7 threads; a named experiment multiplies by its window
// sweep and by the number of cells it renders (approximated by the
// scheme count), so a full-size figure estimates ~3 orders above a
// quick cell, matching their real cost gap.
func (s JobSpec) EstimateCost() uint64 {
	n := s.Normalize()
	text := uint64(n.Draft + n.Dict)
	if text == 0 {
		text = 1
	}
	threads := uint64(7) // the spell workload always schedules 7
	if n.Threads > 0 {
		threads = uint64(n.Threads)
	}
	if n.Experiment == ExperimentCell {
		return threads * uint64(n.Windows) * text
	}
	var windows uint64
	for _, w := range n.WindowList {
		windows += uint64(w)
	}
	if windows == 0 {
		windows = 1
	}
	const schemes = 3 // NS, SNP, SP sweeps per figure
	return schemes * threads * windows * text
}

func schemeByName(name string) (core.Scheme, bool) {
	for _, s := range core.Schemes {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

func policyByName(name string) (sched.Policy, bool) {
	for _, p := range sched.Policies {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// CellSpec converts a harness sweep cell into its canonical job spec.
func CellSpec(c harness.CellSpec) JobSpec {
	return JobSpec{
		Experiment:   ExperimentCell,
		Scheme:       c.Scheme.String(),
		Windows:      c.Windows,
		Policy:       c.Policy.String(),
		Behavior:     c.Behavior.Name,
		Draft:        c.Sizes.Draft,
		Dict:         c.Sizes.Dict,
		Threads:      c.Threads,
		Cores:        c.Cores,
		Quantum:      c.Quantum,
		MigrateEvery: c.MigrateEvery,
	}.Normalize()
}

// CellResult is the JSON-stable outcome of one simulation cell: the
// simulated execution time, the scalar event counters, the exact
// switch-cost distribution, the per-thread suspension counts (paper
// order T1..T7) and the misspelled-word count used as an output
// checksum. The distribution is part of the cached form so that a
// cache-restored cell aggregates exactly like a fresh one.
type CellResult struct {
	Cycles uint64 `json:"cycles"`

	Switches             uint64 `json:"switches"`
	SwitchSaves          uint64 `json:"switch_saves"`
	SwitchRestores       uint64 `json:"switch_restores"`
	SwitchCycles         uint64 `json:"switch_cycles"`
	ZeroTransferSwitches uint64 `json:"zero_transfer_switches"`
	Saves                uint64 `json:"saves"`
	Restores             uint64 `json:"restores"`
	OverflowTraps        uint64 `json:"overflow_traps"`
	UnderflowTraps       uint64 `json:"underflow_traps"`
	TrapSaves            uint64 `json:"trap_saves"`
	TrapRestores         uint64 `json:"trap_restores"`
	Migrations           uint64 `json:"migrations,omitempty"`
	MigrationSaves       uint64 `json:"migration_saves,omitempty"`
	Preemptions          uint64 `json:"preemptions,omitempty"`

	SwitchCost stats.Distribution `json:"switch_cost"`

	ThreadSuspensions [7]uint64 `json:"thread_suspensions"`
	Misspelled        int       `json:"misspelled"`
}

// CellResultOf converts a finished harness cell run into its
// JSON-stable cached form.
func CellResultOf(r harness.Result) *CellResult {
	c := r.Counters
	return &CellResult{
		Cycles:               r.Cycles,
		Switches:             c.Switches,
		SwitchSaves:          c.SwitchSaves,
		SwitchRestores:       c.SwitchRestores,
		SwitchCycles:         c.SwitchCycles,
		ZeroTransferSwitches: c.ZeroTransferSwitches,
		Saves:                c.Saves,
		Restores:             c.Restores,
		OverflowTraps:        c.OverflowTraps,
		UnderflowTraps:       c.UnderflowTraps,
		TrapSaves:            c.TrapSaves,
		TrapRestores:         c.TrapRestores,
		Migrations:           c.Migrations,
		MigrationSaves:       c.MigrationSaves,
		Preemptions:          c.Preemptions,
		SwitchCost:           c.SwitchCost.Clone(),
		ThreadSuspensions:    r.ThreadSuspensions,
		Misspelled:           r.Misspelled,
	}
}

// counters reassembles the full stats.Counters of the cell.
func (cr *CellResult) counters() stats.Counters {
	return stats.Counters{
		Switches:             cr.Switches,
		SwitchSaves:          cr.SwitchSaves,
		SwitchRestores:       cr.SwitchRestores,
		SwitchCycles:         cr.SwitchCycles,
		ZeroTransferSwitches: cr.ZeroTransferSwitches,
		Saves:                cr.Saves,
		Restores:             cr.Restores,
		OverflowTraps:        cr.OverflowTraps,
		UnderflowTraps:       cr.UnderflowTraps,
		TrapSaves:            cr.TrapSaves,
		TrapRestores:         cr.TrapRestores,
		Migrations:           cr.Migrations,
		MigrationSaves:       cr.MigrationSaves,
		Preemptions:          cr.Preemptions,
		SwitchCost:           cr.SwitchCost.Clone(),
	}
}

// HarnessResult rebuilds the harness view of a cell result for the
// given spec — how cached and pooled cells re-enter a sweep
// byte-identically to freshly simulated ones.
func (cr *CellResult) HarnessResult(s JobSpec) harness.Result {
	s = s.Normalize()
	scheme, _ := schemeByName(s.Scheme)
	policy, _ := policyByName(s.Policy)
	b, _ := harness.BehaviorByName(s.Behavior)
	return harness.Result{
		Scheme:            scheme,
		Windows:           s.Windows,
		Policy:            policy,
		Behavior:          b,
		Cycles:            cr.Cycles,
		Counters:          cr.counters(),
		ThreadSuspensions: cr.ThreadSuspensions,
		Misspelled:        cr.Misspelled,
	}
}

// JobResult is the outcome of any job. Cells fill Cell; named
// experiments fill Output (the rendered table/figure text) and, for
// figures, CSV (the machine-readable series data). Counters is the
// window-management aggregate of the whole job — the cell's own
// counters, or the sum over every cell of a named experiment.
type JobResult struct {
	Spec      JobSpec     `json:"spec"`
	Cell      *CellResult `json:"cell,omitempty"`
	Output    string      `json:"output,omitempty"`
	CSV       string      `json:"csv,omitempty"`
	ElapsedMS float64     `json:"elapsed_ms"`
	// Counters aggregates the window-management event counts across
	// every simulation the job ran (cache-restored cells included).
	Counters *stats.Counters `json:"counters,omitempty"`
	// Trace holds the recorded event ring of a cell submitted with
	// "trace": true; GET /v1/jobs/{id}/trace renders it as a Chrome
	// trace.
	Trace *obs.JobTrace `json:"trace,omitempty"`
	// PanicStack is the recovered goroutine stack of a job that
	// panicked mid-simulation (failed jobs only).
	PanicStack string `json:"panic_stack,omitempty"`
}

// runCell executes one simulation cell in the calling goroutine,
// recording its event trace when the spec asks for one.
func runCell(s JobSpec) (*CellResult, *obs.JobTrace, error) {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	scheme, _ := schemeByName(s.Scheme)
	policy, _ := policyByName(s.Policy)
	if s.Threads > 0 {
		// T3 chain cell: the pipeline workload through harness.RunT3.
		r := harness.RunT3(harness.CellSpec{
			Scheme: scheme, Windows: s.Windows, Policy: policy, Sizes: s.Sizes(),
			Threads: s.Threads, Cores: s.Cores,
			Quantum: s.Quantum, MigrateEvery: s.MigrateEvery,
		})
		return CellResultOf(r), nil, nil
	}
	b, _ := harness.BehaviorByName(s.Behavior)
	cfg := core.Config{
		Windows:      s.Windows,
		SearchAlloc:  s.SearchAlloc,
		HWAssist:     s.HWAssist,
		TrapTransfer: s.TrapTransfer,
	}
	opts := harness.SpellOpts{
		Config: cfg, Scheme: scheme, Policy: policy, Behavior: b, Sizes: s.Sizes(),
		MaxCycles: s.MaxCycles, Quantum: s.Quantum,
	}
	var tr *obs.Tracer
	if s.Trace {
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
		// Deterministic guest-side failure: typed fault, deadlock or
		// budget exhaustion. Retrying the spec cannot help.
		return nil, nil, fmt.Errorf("%w: %w", ErrGuestFault, err)
	}
	var jt *obs.JobTrace
	if tr != nil {
		jt = tr.Snapshot()
	}
	return CellResultOf(r), jt, nil
}
