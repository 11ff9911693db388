package sched

import (
	"testing"

	"cyclicwin/internal/core"
)

// leaf and depth2 make a depth-2 call chain: depth2 calls leaf with its
// own argument plus one, and returns leaf's result.
func leaf(e *Env) { e.SetRet(e.Arg(0) + 1) }

func depth2(e *Env) {
	e.Call(leaf, e.Arg(0)+1)
	e.SetRet(e.Ret())
}

// TestEnvCallDoesNotAllocate pins the call path at zero heap
// allocations, with the audit off as benchmarks run and armed as tests
// run: the argument slice stays on the stack, a poll that cannot
// preempt makes no call, and the audit walks the window file in place.
func TestEnvCallDoesNotAllocate(t *testing.T) {
	defer core.SetInvariantChecks(core.InvariantChecksEnabled())
	for _, audit := range []bool{false, true} {
		t.Run(auditName(audit), func(t *testing.T) {
			core.SetInvariantChecks(audit)
			k := newKernel(core.SchemeSP, 8, FIFO)
			var allocs float64
			var ret uint32
			k.Spawn("caller", func(e *Env) {
				e.Call(depth2, 1) // warm the window file
				allocs = testing.AllocsPerRun(100, func() { e.Call(depth2, 1) })
				ret = e.Ret()
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if ret != 3 {
				t.Fatalf("depth-2 call returned %d, want 3", ret)
			}
			if allocs != 0 {
				t.Errorf("Env.Call: %v allocations, want 0", allocs)
			}
		})
	}
}

// auditName names an allocation subtest after its audit state.
func auditName(audit bool) string {
	if audit {
		return "armed"
	}
	return "off"
}

// BenchmarkEnvCall measures one depth-2 Env.Call round trip (two saves,
// two restores and four preemption polls) on a warmed SP window file,
// with the audit off as in BenchmarkYieldHandoff.
func BenchmarkEnvCall(b *testing.B) {
	defer core.SetInvariantChecks(core.InvariantChecksEnabled())
	core.SetInvariantChecks(false)
	k := newKernel(core.SchemeSP, 8, FIFO)
	k.Spawn("caller", func(e *Env) {
		e.Call(depth2, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Call(depth2, 1)
		}
		b.StopTimer()
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
