package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/fault"
)

func newKernel(s core.Scheme, windows int, p Policy) *Kernel {
	return NewKernel(core.New(s, core.Config{Windows: windows}), p)
}

// fib computes Fibonacci through the simulated register windows: the
// argument arrives in %i0, the result leaves in %i0, and every recursive
// step is a real save/restore pair on the window file.
func fib(e *Env) {
	n := e.Arg(0)
	if n < 2 {
		e.SetRet(n)
		return
	}
	e.Call(fib, n-1)
	e.SetLocal(0, e.Ret())
	e.Call(fib, n-2)
	e.SetRet(e.Local(0) + e.Ret())
}

// TestFibThroughWindows runs a recursion much deeper than the window
// file under every scheme; the result must be correct even though frames
// spill and refill continuously.
func TestFibThroughWindows(t *testing.T) {
	const want = 610 // fib(15)
	for _, s := range core.Schemes {
		for _, n := range []int{2, 4, 8, 32} {
			t.Run(fmt.Sprintf("%v/windows=%d", s, n), func(t *testing.T) {
				k := newKernel(s, n, FIFO)
				var got uint32
				k.Spawn("fib", func(e *Env) {
					e.Call(fib, 15)
					got = e.Ret()
				})
				k.Run()
				if got != want {
					t.Errorf("fib(15) = %d, want %d", got, want)
				}
				if k.Manager().Counters().Saves == 0 {
					t.Error("no save instructions executed")
				}
			})
		}
	}
}

// TestFibResultIndependentOfScheme also checks that save counts are
// identical across schemes (the Table 1 invariant at guest level).
func TestFibResultIndependentOfScheme(t *testing.T) {
	var saves []uint64
	for _, s := range core.Schemes {
		k := newKernel(s, 6, FIFO)
		k.Spawn("fib", func(e *Env) { e.Call(fib, 12) })
		k.Run()
		saves = append(saves, k.Manager().Counters().Saves)
	}
	for i := 1; i < len(saves); i++ {
		if saves[i] != saves[0] {
			t.Errorf("scheme %v executed %d saves, scheme %v executed %d",
				core.Schemes[i], saves[i], core.Schemes[0], saves[0])
		}
	}
}

// TestRoundRobinYield checks deterministic interleaving of yielding
// threads.
func TestRoundRobinYield(t *testing.T) {
	k := newKernel(core.SchemeSP, 8, FIFO)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(e *Env) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				e.Yield()
			}
		})
	}
	k.Run()
	want := "abcabcabc"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Errorf("interleaving = %q, want %q", got, want)
	}
}

// TestBlockWake exercises manual block/wake between two threads.
func TestBlockWake(t *testing.T) {
	k := newKernel(core.SchemeSNP, 8, FIFO)
	var consumer *TCB
	value := uint32(0)
	consumer = k.Spawn("consumer", func(e *Env) {
		for value == 0 {
			e.Block()
		}
		value++
	})
	k.Spawn("producer", func(e *Env) {
		value = 41
		k.Wake(consumer)
	})
	k.Run()
	if value != 42 {
		t.Errorf("value = %d, want 42", value)
	}
}

// TestWorkingSetEnqueuesResidentFirst checks the Section 4.6 policy: an
// awoken thread with resident windows jumps the FIFO queue.
func TestWorkingSetEnqueuesResidentFirst(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, WorkingSet)
	var order []string
	var sleeper *TCB
	sleeper = k.Spawn("sleeper", func(e *Env) {
		e.Block() // suspended with windows resident
		order = append(order, "sleeper")
	})
	k.Spawn("waker", func(e *Env) {
		// filler is queued behind us; the resident sleeper must jump it.
		k.Wake(sleeper)
		order = append(order, "waker")
	})
	k.Spawn("filler", func(e *Env) {
		order = append(order, "filler")
	})
	k.Run()
	got := fmt.Sprint(order)
	want := fmt.Sprint([]string{"waker", "sleeper", "filler"})
	if got != want {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// TestFIFOWakeGoesToBack contrasts the FIFO policy with the working-set
// one on the same program.
func TestFIFOWakeGoesToBack(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, FIFO)
	var order []string
	var sleeper *TCB
	sleeper = k.Spawn("sleeper", func(e *Env) {
		e.Block()
		order = append(order, "sleeper")
	})
	k.Spawn("waker", func(e *Env) {
		k.Wake(sleeper) // FIFO: goes behind the queued filler
		order = append(order, "waker")
	})
	k.Spawn("filler", func(e *Env) {
		order = append(order, "filler")
	})
	k.Run()
	got := fmt.Sprint(order)
	want := fmt.Sprint([]string{"waker", "filler", "sleeper"})
	if got != want {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// TestDeadlockReturnsDiagnostic pins the stuck-program contract: Run
// terminates with a *fault.DeadlockError naming every thread's state
// instead of panicking or hanging.
func TestDeadlockReturnsDiagnostic(t *testing.T) {
	k := newKernel(core.SchemeNS, 8, FIFO)
	k.Spawn("stuck", func(e *Env) { e.Block() })
	k.Spawn("fine", func(e *Env) {})
	k.RegisterDiag("resource r", func() string { return "probe ran" })
	err := k.Run()
	var d *fault.DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("deadlocked Run returned %v, want *fault.DeadlockError", err)
	}
	msg := err.Error()
	for _, want := range []string{"1 thread(s) blocked", "stuck", "blocked", "fine", "done", "resource r", "probe ran"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
}

// TestFailPropagates pins the thread-failure contract: Env.Fail unwinds
// the body, marks the thread Failed, and Run returns the error while
// other threads' completed work stands.
func TestFailPropagates(t *testing.T) {
	k := newKernel(core.SchemeSP, 8, FIFO)
	sentinel := errors.New("boom")
	ran := false
	k.Spawn("ok", func(e *Env) { ran = true })
	bad := k.Spawn("bad", func(e *Env) {
		e.Call(func(e *Env) { // fail mid-call: windows must still release
			e.Fail(sentinel)
		})
		t.Error("Fail returned to the body")
	})
	err := k.Run()
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run returned %v, want the failing thread's error", err)
	}
	if bad.State() != Failed || !errors.Is(bad.Err(), sentinel) {
		t.Errorf("thread state = %v err = %v, want Failed with the sentinel", bad.State(), bad.Err())
	}
	if !ran {
		t.Error("the healthy thread spawned first never ran")
	}
}

// TestBodyPanicBecomesError pins the no-crash rule: a raw panic in a
// guest body is recovered into an error (with the thread named), not
// propagated to the process.
func TestBodyPanicBecomesError(t *testing.T) {
	k := newKernel(core.SchemeNS, 8, FIFO)
	k.Spawn("crasher", func(e *Env) { panic("guest bug") })
	err := k.Run()
	if err == nil {
		t.Fatal("panicking guest did not fail the run")
	}
	if !strings.Contains(err.Error(), "crasher") || !strings.Contains(err.Error(), "guest bug") {
		t.Errorf("error %q does not name the thread and the panic", err)
	}
}

// TestMaxCyclesWatchdog pins the cycle-budget watchdog on a runaway
// guest: deterministic termination with a *fault.BudgetError naming the
// live threads.
func TestMaxCyclesWatchdog(t *testing.T) {
	k := newKernel(core.SchemeSP, 8, FIFO)
	k.SetMaxCycles(10_000)
	k.Spawn("spinner", func(e *Env) {
		for {
			e.Work(100) // never terminates on its own
		}
	})
	err := k.Run()
	var b *fault.BudgetError
	if !errors.As(err, &b) {
		t.Fatalf("runaway guest returned %v, want *fault.BudgetError", err)
	}
	if b.Limit != 10_000 || b.Cycle <= b.Limit {
		t.Errorf("budget error limit=%d cycle=%d, want cycle just past the limit", b.Limit, b.Cycle)
	}
	if !strings.Contains(err.Error(), "spinner") {
		t.Errorf("diagnostic %q does not name the runaway thread", err)
	}
}

// TestMaxCyclesNotTrippedByCleanRun checks the watchdog stays silent
// for a run that finishes under budget.
func TestMaxCyclesNotTrippedByCleanRun(t *testing.T) {
	k := newKernel(core.SchemeSP, 8, FIFO)
	k.SetMaxCycles(1_000_000)
	k.Spawn("fib", func(e *Env) { e.Call(fib, 12) })
	if err := k.Run(); err != nil {
		t.Fatalf("clean run tripped the watchdog: %v", err)
	}
}

// TestJoinFailedThreadUnblocks checks Failed is terminal for Join: a
// joiner of a failing thread is not stranded.
func TestJoinFailedThreadUnblocks(t *testing.T) {
	k := newKernel(core.SchemeSP, 8, FIFO)
	joined := false
	bad := k.Spawn("bad", func(e *Env) {
		e.Yield()
		e.Fail(errors.New("gone"))
	})
	k.Spawn("waiter", func(e *Env) {
		e.Join(bad)
		joined = true
	})
	err := k.Run()
	if err == nil {
		t.Fatal("failing thread did not fail the run")
	}
	// The kernel aborts on the first failure, so the joiner may not have
	// resumed — but it must be woken (Ready), never left Blocked.
	if !joined {
		for _, th := range k.Threads() {
			if th.Name() == "waiter" && th.State() == Blocked {
				t.Error("joiner left blocked on a failed thread")
			}
		}
	}
}

// TestSpawnDuringRun checks that a running guest can create new threads.
func TestSpawnDuringRun(t *testing.T) {
	k := newKernel(core.SchemeSP, 8, FIFO)
	ran := 0
	k.Spawn("parent", func(e *Env) {
		for i := 0; i < 3; i++ {
			k.Spawn(fmt.Sprintf("child%d", i), func(e *Env) { ran++ })
		}
	})
	k.Run()
	if ran != 3 {
		t.Errorf("children ran = %d, want 3", ran)
	}
}

// TestFlushOnSwitch checks that a marked thread is suspended with the
// flushing switch type of Section 4.4.
func TestFlushOnSwitch(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, FIFO)
	var sleepy *TCB
	sleepy = k.Spawn("sleepy", func(e *Env) {
		e.Call(func(e *Env) {
			e.Call(func(e *Env) { e.Yield() })
		})
	})
	sleepy.SetFlushOnSwitch(true)
	k.Spawn("other", func(e *Env) {
		if k.Manager().Resident(sleepy.Core) {
			t.Error("sleepy's windows were not flushed at switch")
		}
	})
	k.Run()
}

// TestSuspensionCounting checks per-thread suspension counters feeding
// Table 1.
func TestSuspensionCounting(t *testing.T) {
	k := newKernel(core.SchemeSNP, 8, FIFO)
	a := k.Spawn("a", func(e *Env) {
		for i := 0; i < 5; i++ {
			e.Yield()
		}
	})
	k.Spawn("b", func(e *Env) {
		for i := 0; i < 5; i++ {
			e.Yield()
		}
	})
	k.Run()
	if got := a.Stats().Suspensions; got != 5 {
		t.Errorf("a suspensions = %d, want 5", got)
	}
}

// TestPreemptionQuantum checks the time-slicing extension: a
// compute-bound thread is preempted so a peer makes progress, and the
// run completes with preemptions counted.
func TestPreemptionQuantum(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, FIFO)
	k.SetQuantum(100)
	var order []string
	k.Spawn("hog", func(e *Env) {
		for i := 0; i < 10; i++ {
			e.Work(60) // exceeds the quantum every two charges
			order = append(order, "h")
		}
	})
	k.Spawn("peer", func(e *Env) {
		for i := 0; i < 3; i++ {
			e.Work(60)
			order = append(order, "p")
		}
	})
	k.Run()
	if k.TotalCounters().Preemptions == 0 {
		t.Fatal("no preemptions with a 100-cycle quantum")
	}
	// The peer must have run before the hog finished.
	joined := strings.Join(order, "")
	if i := strings.Index(joined, "p"); i < 0 || i > 6 {
		t.Errorf("peer first ran at position %d of %q; preemption should interleave earlier", i, joined)
	}
}

// TestNoPreemptionByDefault pins the paper's non-preemptive default.
func TestNoPreemptionByDefault(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, FIFO)
	ran := ""
	k.Spawn("hog", func(e *Env) {
		for i := 0; i < 50; i++ {
			e.Work(1000)
		}
		ran += "h"
	})
	k.Spawn("peer", func(e *Env) { ran += "p" })
	k.Run()
	if ran != "hp" {
		t.Errorf("order = %q; without a quantum the hog must run to completion first", ran)
	}
	if n := k.TotalCounters().Preemptions; n != 0 {
		t.Errorf("preemptions = %d without a quantum", n)
	}
}

// TestPreemptionPreservesRegisters runs the deep recursive fib with an
// aggressive quantum and a competing thread: preemption at arbitrary
// call boundaries must not corrupt window contents.
func TestPreemptionPreservesRegisters(t *testing.T) {
	for _, s := range core.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			k := newKernel(s, 6, FIFO)
			k.SetQuantum(25)
			var got1, got2 uint32
			k.Spawn("fib1", func(e *Env) {
				e.Call(fib, 13)
				got1 = e.Ret()
			})
			k.Spawn("fib2", func(e *Env) {
				e.Call(fib, 12)
				got2 = e.Ret()
			})
			k.Run()
			if got1 != 233 || got2 != 144 {
				t.Errorf("fib results %d, %d under preemption; want 233, 144", got1, got2)
			}
			if k.TotalCounters().Preemptions == 0 {
				t.Error("no preemptions occurred")
			}
		})
	}
}

// TestJoin checks the join primitive: waiting on a live thread, on an
// already-finished thread, and multiple joiners on one target.
func TestJoin(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, FIFO)
	var order []string
	worker := k.Spawn("worker", func(e *Env) {
		for i := 0; i < 3; i++ {
			e.Yield()
		}
		order = append(order, "worker")
	})
	for _, name := range []string{"j1", "j2"} {
		name := name
		k.Spawn(name, func(e *Env) {
			e.Join(worker)
			order = append(order, name)
		})
	}
	k.Spawn("late", func(e *Env) {
		e.Join(worker) // likely already done by now; must not hang
		order = append(order, "late")
	})
	k.Run()
	got := strings.Join(order, ",")
	if got != "worker,j1,j2,late" {
		t.Errorf("order = %q", got)
	}
}

// TestJoinSelfPanics pins the self-join diagnostic.
func TestJoinSelfPanics(t *testing.T) {
	k := newKernel(core.SchemeNS, 8, FIFO)
	var self *TCB
	self = k.Spawn("narcissist", func(e *Env) {
		defer func() {
			if recover() == nil {
				t.Error("self-join did not panic")
			}
		}()
		e.Join(self)
	})
	k.Run()
}

// TestArgLimit pins the six-register argument ABI.
func TestArgLimit(t *testing.T) {
	k := newKernel(core.SchemeSP, 8, FIFO)
	k.Spawn("t", func(e *Env) {
		defer func() {
			if recover() == nil {
				t.Error("7-argument Call did not panic")
			}
		}()
		e.Call(func(e *Env) {}, 1, 2, 3, 4, 5, 6, 7)
	})
	k.Run()
}

// deepen grows the calling thread's window stack by the given number of
// real frames, forcing window overflows that steal suspended threads'
// windows on a small file.
func deepen(e *Env) {
	if e.Arg(0) > 0 {
		e.Call(deepen, e.Arg(0)-1)
	}
}

// TestWorkingSetStaleResidencyDemoted pins the wake-versus-reclaim gap:
// a sleeper is woken while its windows are resident (and so jumps to
// the front of the ready queue), but before it is dispatched the
// running thread's growth reclaims its last window. The front slot was
// granted for a zero-transfer dispatch that is no longer possible, so
// the scheduler must demote the now-nonresident sleeper behind the
// waiting filler.
func TestWorkingSetStaleResidencyDemoted(t *testing.T) {
	k := newKernel(core.SchemeSP, 4, WorkingSet)
	var order []string
	var sleeper *TCB
	sleeper = k.Spawn("sleeper", func(e *Env) {
		e.Block()
		order = append(order, "sleeper")
	})
	k.Spawn("waker", func(e *Env) {
		k.Wake(sleeper)
		if !k.mgr.Resident(sleeper.Core) {
			t.Error("sleeper not resident at wake time; scenario broken")
		}
		// Grow past the whole 4-window file: the sleeper's last window
		// is spilled to make room.
		e.Call(deepen, 6)
		if k.mgr.Resident(sleeper.Core) {
			t.Error("sleeper still resident after deep growth; scenario broken")
		}
		order = append(order, "waker")
	})
	k.Spawn("filler", func(e *Env) {
		order = append(order, "filler")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(order)
	want := fmt.Sprint([]string{"waker", "filler", "sleeper"})
	if got != want {
		t.Errorf("order = %v, want %v (stale front slot not demoted)", got, want)
	}
}

// TestWorkingSetFreshResidencyKeepsFront is the positive control for
// the demotion: when the woken thread's windows are still resident at
// dispatch time, the front slot is honoured exactly as before.
func TestWorkingSetFreshResidencyKeepsFront(t *testing.T) {
	k := newKernel(core.SchemeSP, 16, WorkingSet)
	var order []string
	var sleeper *TCB
	sleeper = k.Spawn("sleeper", func(e *Env) {
		e.Block()
		order = append(order, "sleeper")
	})
	k.Spawn("waker", func(e *Env) {
		k.Wake(sleeper)
		e.Call(deepen, 4) // plenty of windows: nothing is stolen
		if !k.mgr.Resident(sleeper.Core) {
			t.Error("sleeper lost residency on a 16-window file; scenario broken")
		}
		order = append(order, "waker")
	})
	k.Spawn("filler", func(e *Env) {
		order = append(order, "filler")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(order)
	want := fmt.Sprint([]string{"waker", "sleeper", "filler"})
	if got != want {
		t.Errorf("order = %v, want %v (resident sleeper must keep the front)", got, want)
	}
}
