package sched

import (
	"fmt"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/cycles"
	"cyclicwin/internal/mem"
)

// This file pins the T3-scale extensions: the O(1) ready deque, the
// preemption safe points on both edges of Call, Join's single
// registration, and multi-core migration.

// newMultiKernel builds an M-core kernel: one window manager per core,
// all sharing a cycle counter, a memory and a stack allocator, so
// threads survive migration between window files.
func newMultiKernel(s core.Scheme, windows, ncores int, p Policy) *Kernel {
	cyc := new(cycles.Counter)
	memory := mem.New()
	stacks := mem.NewStackAllocator(0xfff0000, 1<<16)
	mgrs := make([]core.Manager, ncores)
	for i := range mgrs {
		mgrs[i] = core.New(s, core.Config{Windows: windows, Memory: memory, Counter: cyc, Stacks: stacks})
	}
	return NewMultiKernel(mgrs, p)
}

// TestWakeSteadyStateNoAlloc pins the Wake hot path at 256 threads:
// once the ready deque is warm, a full wake+drain round of all 256
// threads performs zero heap allocations. The old slice implementation
// allocated a fresh queue on every working-set front-enqueue
// (append([]*TCB{t}, ready...)).
func TestWakeSteadyStateNoAlloc(t *testing.T) {
	for _, p := range Policies {
		k := newKernel(core.SchemeSP, 8, p)
		tcbs := make([]*TCB, 256)
		for i := range tcbs {
			tcbs[i] = k.Spawn(fmt.Sprintf("t%d", i), func(*Env) {})
		}
		round := func() {
			for k.pop() != nil {
			}
			for _, tc := range tcbs {
				tc.state = Blocked
			}
			for _, tc := range tcbs {
				k.Wake(tc)
			}
		}
		round() // warm the rings
		if n := testing.AllocsPerRun(10, round); n != 0 {
			t.Errorf("%v: wake+drain of 256 threads allocates %.1f objects per round, want 0", p, n)
		}
	}
}

// BenchmarkWake256 measures the Wake path at T3 thread counts; run with
// -benchmem to see the zero steady-state allocation.
func BenchmarkWake256(b *testing.B) {
	// TestMain arms the invariant audit for this binary; it is off
	// while measuring, as in BenchmarkYieldHandoff.
	audit := core.InvariantChecksEnabled()
	core.SetInvariantChecks(false)
	defer core.SetInvariantChecks(audit)
	k := newKernel(core.SchemeSP, 8, WorkingSet)
	tcbs := make([]*TCB, 256)
	for i := range tcbs {
		tcbs[i] = k.Spawn(fmt.Sprintf("t%d", i), func(*Env) {})
	}
	drain := func() {
		for k.pop() != nil {
		}
		for _, tc := range tcbs {
			tc.state = Blocked
		}
	}
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tc := range tcbs {
			k.Wake(tc)
		}
		drain()
	}
}

// TestDemotionMovesConstant pins the working-set demotion cost: popping
// a dispatch with a stale-resident head moves a constant number of
// queue elements regardless of queue length. The old slice
// implementation shifted the entire queue per demotion — O(n) moves —
// which this regression would catch as a length-dependent delta.
func TestDemotionMovesConstant(t *testing.T) {
	delta := func(n int) uint64 {
		k := newKernel(core.SchemeSP, 8, WorkingSet)
		for i := 0; i < n; i++ {
			k.Spawn(fmt.Sprintf("t%d", i), func(*Env) {})
		}
		// Mark the head as a stale resident: front-queued by Wake, but
		// its windows are gone by dispatch time (it never ran, so the
		// residency check fails).
		k.ready.peekFront().wokeResident = true
		before := k.ready.moves
		if k.pop() == nil {
			t.Fatal("pop returned nil")
		}
		return k.ready.moves - before
	}
	small, large := delta(10), delta(1000)
	if small != large {
		t.Errorf("demotion moves depend on queue length: %d at n=10, %d at n=1000", small, large)
	}
	if small > 4 {
		t.Errorf("demotion + dispatch moved %d elements, want O(1)", small)
	}
}

// TestRingWrapAndGrow exercises the deque's ring buffer across growth
// and wraparound: interleaved front/back pushes must come out in deque
// order through arbitrary resizes.
func TestRingWrapAndGrow(t *testing.T) {
	var r tcbRing
	mk := func(i int) *TCB { return &TCB{name: fmt.Sprintf("t%d", i)} }
	// Force the head away from zero, then grow with a wrapped layout.
	for i := 0; i < 6; i++ {
		r.pushBack(mk(i))
	}
	for i := 0; i < 4; i++ {
		r.popFront()
	}
	for i := 6; i < 30; i++ { // grows twice while head > 0
		r.pushBack(mk(i))
	}
	r.pushFront(mk(99))
	want := []int{99, 4, 5}
	for i := 6; i < 30; i++ {
		want = append(want, i)
	}
	for _, w := range want {
		got := r.popFront()
		if got == nil || got.name != fmt.Sprintf("t%d", w) {
			t.Fatalf("popFront = %v, want t%d", got, w)
		}
	}
	if r.popFront() != nil || r.len() != 0 {
		t.Fatal("ring not empty after draining")
	}
}

// TestQuantumHonouredAtCallEntry pins the safe point on the entry edge
// of Call: a thread whose quantum expired while nobody else was ready
// wakes a sleeper and is preempted before its next save, so the callee
// runs only after the sleeper.
func TestQuantumHonouredAtCallEntry(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, FIFO)
	k.SetQuantum(1)
	var order []string
	sleeper := k.Spawn("sleeper", func(e *Env) {
		e.Block()
		order = append(order, "sleeper")
	})
	k.Spawn("waker", func(e *Env) {
		e.Work(5) // expires the quantum with nobody ready: no preemption
		k.Wake(sleeper)
		e.Call(func(*Env) { order = append(order, "callee") })
		order = append(order, "after")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]string{"sleeper", "callee", "after"})
	if got := fmt.Sprint(order); got != want {
		t.Errorf("order = %v, want %v (no preemption at the call entry edge)", got, want)
	}
	if k.TotalCounters().Preemptions == 0 {
		t.Error("no preemption counted")
	}
}

// TestQuantumHonouredAtReturnEdge pins that a quantum expiring inside a
// callee preempts at the return edge: the peer runs before the caller's
// first post-call statement, even though the caller never calls Work.
func TestQuantumHonouredAtReturnEdge(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, FIFO)
	k.SetQuantum(1)
	var order []string
	k.Spawn("hog", func(e *Env) {
		for i := 0; i < 3; i++ {
			e.Call(func(*Env) {})
			order = append(order, "h")
		}
	})
	k.Spawn("peer", func(*Env) { order = append(order, "p") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != fmt.Sprint([]string{"p", "h", "h", "h"}) {
		t.Errorf("order = %v; the first Call's return edge must yield to the peer", order)
	}
	if k.TotalCounters().Preemptions == 0 {
		t.Error("no preemption counted")
	}
}

// TestJoinRegistersOnce pins the joiner-list deduplication: a joiner
// spuriously woken while the target lives re-blocks without
// re-registering, so the list stays at one entry and the target's
// termination issues exactly one wake.
func TestJoinRegistersOnce(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, FIFO)
	var target, joiner *TCB
	joined := false
	target = k.Spawn("target", func(e *Env) { e.Block() })
	joiner = k.Spawn("joiner", func(e *Env) {
		e.Join(target)
		joined = true
	})
	k.Spawn("waker", func(e *Env) {
		for i := 0; i < 3; i++ {
			k.Wake(joiner) // spurious: target still alive
			e.Yield()
			if n := len(target.joiners); n != 1 {
				t.Errorf("after spurious wake %d: %d joiner registrations, want 1", i+1, n)
			}
		}
		k.Wake(target)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !joined {
		t.Error("joiner never completed")
	}
}

// TestJoinTerminalTargetNoRegistration pins the early return: joining
// an already-terminated thread must not touch its joiner list.
func TestJoinTerminalTargetNoRegistration(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, FIFO)
	target := k.Spawn("target", func(*Env) {})
	k.Spawn("late", func(e *Env) {
		e.Join(target) // target is long Done
		if len(target.joiners) != 0 {
			t.Errorf("%d registrations on a terminal target", len(target.joiners))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiCoreMigration runs recursive workloads on a 2-core kernel
// with forced migration: results must be exact, migrations must be
// counted (with their window saves) on the per-core counters that feed
// /metrics, and threads must end up having moved between cores.
func TestMultiCoreMigration(t *testing.T) {
	for _, s := range core.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			k := newMultiKernel(s, 8, 2, FIFO)
			k.SetQuantum(40) // multiple dispatches per thread, so migration triggers
			k.SetMigrateEvery(2)
			got := make([]uint32, 6)
			for i := range got {
				i := i
				k.Spawn(fmt.Sprintf("fib%d", i), func(e *Env) {
					e.Call(fib, uint32(10+i))
					got[i] = e.Ret()
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			want := []uint32{55, 89, 144, 233, 377, 610}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("fib(%d) = %d, want %d", 10+i, got[i], want[i])
				}
			}
			total := k.TotalCounters()
			if total.Migrations == 0 {
				t.Error("no migrations counted")
			}
			if total.MigrationSaves == 0 {
				t.Error("migrations moved no windows")
			}
			for i, m := range k.Cores() {
				if err := m.(core.Verifier).Verify(); err != nil {
					t.Errorf("core %d invariants: %v", i, err)
				}
			}
		})
	}
}

// TestMultiCoreMatchesSingleCoreResults pins that migration perturbs
// only the cycle accounting, never the computation: the same workload
// on 1 core and on 3 cores with aggressive migration produces identical
// results.
func TestMultiCoreMatchesSingleCoreResults(t *testing.T) {
	run := func(ncores, migrateEvery int) []uint32 {
		k := newMultiKernel(core.SchemeSP, 6, ncores, WorkingSet)
		k.SetQuantum(30)
		k.SetMigrateEvery(migrateEvery)
		got := make([]uint32, 5)
		for i := range got {
			i := i
			k.Spawn(fmt.Sprintf("t%d", i), func(e *Env) {
				e.Call(fib, uint32(9+i))
				got[i] = e.Ret() + uint32(i)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	single := run(1, 0)
	multi := run(3, 1)
	for i := range single {
		if single[i] != multi[i] {
			t.Errorf("thread %d: single-core %d != multi-core %d", i, single[i], multi[i])
		}
	}
}

// TestMigrationChargesCycles pins the migration price: each eviction
// charges at least cycles.MigrationBase, so a migrating run costs
// strictly more than the identical run without migration.
func TestMigrationChargesCycles(t *testing.T) {
	run := func(migrateEvery int) (uint64, uint64) {
		k := newMultiKernel(core.SchemeSP, 8, 2, FIFO)
		k.SetQuantum(40)
		k.SetMigrateEvery(migrateEvery)
		for i := 0; i < 4; i++ {
			k.Spawn(fmt.Sprintf("t%d", i), func(e *Env) { e.Call(fib, 11) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Cycles().Total(), k.TotalCounters().Migrations
	}
	base, m0 := run(0)
	migr, m1 := run(2)
	if m0 != 0 {
		t.Fatalf("migrations without SetMigrateEvery: %d", m0)
	}
	if m1 == 0 {
		t.Fatal("no migrations with SetMigrateEvery(2)")
	}
	if migr < base+m1*cycles.MigrationBase {
		t.Errorf("migrating run cost %d cycles, want at least %d + %d migrations * %d",
			migr, base, m1, uint64(cycles.MigrationBase))
	}
}

// TestHighThreadCountAllPolicies runs 128 threads over every policy on
// every scheme at a wide 64-window file, checking results and that the
// run terminates cleanly (the deque at scale).
func TestHighThreadCountAllPolicies(t *testing.T) {
	n := 128
	if testing.Short() {
		n = 64
	}
	for _, s := range core.Schemes {
		for _, p := range Policies {
			t.Run(fmt.Sprintf("%v/%v", s, p), func(t *testing.T) {
				k := newKernel(s, 64, p)
				k.SetQuantum(100)
				got := make([]uint32, n)
				for i := 0; i < n; i++ {
					i := i
					k.Spawn(fmt.Sprintf("t%d", i), func(e *Env) {
						e.Call(fib, uint32(5+i%5))
						got[i] = e.Ret()
					})
				}
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				fibs := []uint32{5, 8, 13, 21, 34}
				for i := 0; i < n; i++ {
					if got[i] != fibs[i%5] {
						t.Fatalf("thread %d: fib(%d) = %d, want %d", i, 5+i%5, got[i], fibs[i%5])
					}
				}
			})
		}
	}
}
