package check

import (
	"fmt"

	"cyclicwin/internal/core"
	"cyclicwin/internal/cycles"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/workload"
)

// This file checks scheduling parity at the kernel level: the same
// chain-pipeline workload must produce the same checksum on every
// window-management scheme (including the infinite-window Reference
// oracle), under every scheduling policy, preemptive or not, on one
// core or many with forced migration. The action-sequence checker
// (driver.go) proves the managers agree step by step; this harness
// proves the whole machine — kernel, streams, preemption, migration —
// never lets scheduling decisions leak into results.

// ParityConfig bounds one parity sweep.
type ParityConfig struct {
	Windows      int   // window-file size per core
	ThreadCounts []int // chain pipeline sizes
	Items        int   // pipeline items per run
	Depth        int   // call-chain depth per hop
	Quantum      uint64
	Cores        int // cores for the migration variant (0 skips it)
	MigrateEvery int
	Log          func(format string, args ...interface{})
}

// DefaultParity is the T3-scale parity sweep: thread populations far
// past the window file, checked under every policy, preemptively, and
// across migrating cores.
func DefaultParity() ParityConfig {
	return ParityConfig{
		Windows:      64,
		ThreadCounts: []int{64, 128, 256},
		Items:        40,
		Depth:        4,
		Quantum:      50,
		Cores:        3,
		MigrateEvery: 2,
	}
}

// paritySchemes are the checked managers: the three real schemes plus
// the infinite-window oracle.
var paritySchemes = []core.Scheme{
	core.SchemeNS, core.SchemeSNP, core.SchemeSP, core.SchemeReference,
}

// RunParity sweeps the configuration and returns the first checksum
// divergence, or nil if every (scheme, policy, variant, threads) cell
// agrees with workload.ChainExpected.
func RunParity(cfg ParityConfig) error {
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	type variant struct {
		name    string
		quantum uint64
		cores   int
		migrate int
	}
	variants := []variant{
		{name: "plain"},
		{name: "preemptive", quantum: cfg.Quantum},
	}
	if cfg.Cores > 1 {
		variants = append(variants, variant{
			name: "migrating", quantum: cfg.Quantum,
			cores: cfg.Cores, migrate: cfg.MigrateEvery,
		})
	}
	for _, n := range cfg.ThreadCounts {
		want := workload.ChainExpected(n, cfg.Depth, cfg.Items)
		for _, s := range paritySchemes {
			for _, p := range sched.Policies {
				for _, v := range variants {
					got, err := runParityCell(s, p, cfg, n, v.quantum, v.cores, v.migrate)
					if err != nil {
						return fmt.Errorf("check: parity %v/%v/%s n=%d: %w", s, p, v.name, n, err)
					}
					if got != want {
						return fmt.Errorf("check: parity %v/%v/%s n=%d: checksum %#x, want %#x",
							s, p, v.name, n, got, want)
					}
				}
			}
		}
		logf("check: parity n=%d: %d schemes × %d policies × %d variants ok",
			n, len(paritySchemes), len(sched.Policies), len(variants))
	}
	return nil
}

func runParityCell(s core.Scheme, p sched.Policy, cfg ParityConfig, threads int, quantum uint64, cores, migrate int) (uint32, error) {
	if cores < 1 {
		cores = 1
	}
	cyc := new(cycles.Counter)
	ccfg := core.Config{Windows: cfg.Windows, Memory: mem.New(), Counter: cyc}
	if cores > 1 {
		ccfg.Stacks = mem.NewStackAllocator(0xfff0000, 1<<16)
	}
	mgrs := make([]core.Manager, cores)
	for i := range mgrs {
		mgrs[i] = core.New(s, ccfg)
	}
	k := sched.NewMultiKernel(mgrs, p)
	if quantum > 0 {
		k.SetQuantum(quantum)
	}
	if migrate > 0 {
		k.SetMigrateEvery(migrate)
	}
	result := workload.Chain(k, threads, cfg.Depth, cfg.Items)
	if err := k.Run(); err != nil {
		return 0, err
	}
	return result(), nil
}
