package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cyclicwin/internal/core"
	"cyclicwin/internal/fault"
)

// settledGoroutines polls, for at most five seconds, until the
// goroutine count falls to want, and returns the last count read.
// Goroutines that have finished their work may still be exiting when
// Run returns, so the count is polled rather than read once.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// panicOnSwitch is a window manager whose Switch panics with val on its
// n-th call.
type panicOnSwitch struct {
	core.Manager
	n, calls int
	val      any
}

func (m *panicOnSwitch) Switch(t *core.Thread) {
	if m.calls++; m.calls == m.n {
		panic(m.val)
	}
	m.Manager.Switch(t)
}

// panicOnExit is a window manager whose Exit panics with val.
type panicOnExit struct {
	core.Manager
	val any
}

func (m *panicOnExit) Exit() { panic(m.val) }

// panicOnResident is a window manager whose Resident panics with val.
type panicOnResident struct {
	core.Manager
	val any
}

func (m *panicOnResident) Resident(*core.Thread) bool { panic(m.val) }

// runCatching runs k and returns the value Run panicked with on the
// calling goroutine, or Run's error.
func runCatching(k *Kernel) (val any, err error) {
	defer func() { val = recover() }()
	return nil, k.Run()
}

// spinner yields forever; sleeper blocks and is never woken.
func spinner(e *Env) {
	for {
		e.Work(10)
		e.Yield()
	}
}

func sleeper(e *Env) {
	e.Call(func(e *Env) { e.Block() })
}

// TestRunLeavesNoGoroutines pins deterministic teardown: whichever way
// a run ends, every thread coroutine has finished once Run returns,
// including threads parked mid-call, threads woken but not yet
// dispatched, and threads never dispatched at all.
func TestRunLeavesNoGoroutines(t *testing.T) {
	boom := errors.New("boom")
	switchBug := errors.New("switch bug")
	cases := []struct {
		name string
		// switchPanic, when non-zero, makes the manager's Switch panic
		// with switchBug on that call.
		switchPanic int
		// spawn fills k with n threads and returns a check of Run's
		// outcome.
		spawn func(k *Kernel, n int) func(val any, err error) error
	}{
		{"fail", 0, func(k *Kernel, n int) func(any, error) error {
			for i := 0; i < n-1; i++ {
				if i%2 == 0 {
					k.Spawn(fmt.Sprint("sleeper", i), sleeper)
				} else {
					k.Spawn(fmt.Sprint("spinner", i), spinner)
				}
			}
			k.Spawn("failer", func(e *Env) {
				e.Yield()
				e.Call(func(e *Env) { e.Fail(boom) })
			})
			return func(_ any, err error) error {
				if !errors.Is(err, boom) {
					return fmt.Errorf("Run = %v, want the Fail error", err)
				}
				return nil
			}
		}},
		{"body panic", 0, func(k *Kernel, n int) func(any, error) error {
			for i := 0; i < n-1; i++ {
				k.Spawn(fmt.Sprint("spinner", i), spinner)
			}
			k.Spawn("crasher", func(e *Env) {
				e.Yield()
				panic("guest bug")
			})
			return func(_ any, err error) error {
				if err == nil || !strings.Contains(err.Error(), "guest bug") {
					return fmt.Errorf("Run = %v, want the body panic as an error", err)
				}
				return nil
			}
		}},
		{"deadlock", 0, func(k *Kernel, n int) func(any, error) error {
			for i := 0; i < n; i++ {
				k.Spawn(fmt.Sprint("sleeper", i), func(e *Env) {
					// Unwinding runs these; while Run stops the kernel
					// they must neither dispatch nor wait.
					defer e.Yield()
					defer e.Block()
					e.Yield()
					sleeper(e)
				})
			}
			return func(_ any, err error) error {
				var d *fault.DeadlockError
				if !errors.As(err, &d) {
					return fmt.Errorf("Run = %v, want *fault.DeadlockError", err)
				}
				return nil
			}
		}},
		{"cycle budget", 0, func(k *Kernel, n int) func(any, error) error {
			k.SetMaxCycles(2_000)
			for i := 0; i < n; i++ {
				if i%3 == 0 {
					k.Spawn(fmt.Sprint("sleeper", i), sleeper)
				} else {
					k.Spawn(fmt.Sprint("spinner", i), spinner)
				}
			}
			return func(_ any, err error) error {
				var b *fault.BudgetError
				if !errors.As(err, &b) {
					return fmt.Errorf("Run = %v, want *fault.BudgetError", err)
				}
				return nil
			}
		}},
		{"never dispatched", 0, func(k *Kernel, n int) func(any, error) error {
			k.Spawn("failer", func(e *Env) { e.Fail(boom) })
			for i := 0; i < n-1; i++ {
				k.Spawn(fmt.Sprint("spinner", i), spinner)
			}
			return func(_ any, err error) error {
				if !errors.Is(err, boom) {
					return fmt.Errorf("Run = %v, want the Fail error", err)
				}
				for _, th := range k.Threads()[1:] {
					if th.State() != Ready {
						return fmt.Errorf("%s is %v, want ready: it was never dispatched", th.Name(), th.State())
					}
				}
				return nil
			}
		}},
		{"manager panic", 9, func(k *Kernel, n int) func(any, error) error {
			for i := 0; i < n; i++ {
				if i%2 == 0 {
					k.Spawn(fmt.Sprint("sleeper", i), sleeper)
				} else {
					k.Spawn(fmt.Sprint("spinner", i), spinner)
				}
			}
			return func(val any, err error) error {
				if val != switchBug {
					return fmt.Errorf("Run returned %v and panicked with %v, want the Switch panic", err, val)
				}
				return nil
			}
		}},
	}
	for _, c := range cases {
		for _, n := range []int{4, 8, 16} {
			t.Run(fmt.Sprintf("%s/threads=%d", c.name, n), func(t *testing.T) {
				before := runtime.NumGoroutine()
				mgr := core.New(core.SchemeSP, core.Config{Windows: 6})
				if c.switchPanic != 0 {
					mgr = &panicOnSwitch{Manager: mgr, n: c.switchPanic, val: switchBug}
				}
				k := NewKernel(mgr, FIFO)
				check := c.spawn(k, n)
				if err := check(runCatching(k)); err != nil {
					t.Fatal(err)
				}
				if got := settledGoroutines(before); got > before {
					t.Fatalf("%d goroutines before Run, %d after: guest goroutines outlived Run", before, got)
				}
				// The run's end sticks: a second Run reports it again
				// instead of dispatching a stopped thread.
				if val, err := runCatching(k); err == nil && val == nil {
					t.Error("a second Run on a stopped kernel returned nil")
				}
			})
		}
	}
}

// TestRunReraisesManagerPanic pins panic forwarding: a window-manager
// panic outside a guest body — in a dispatch's Switch, in the Exit of a
// thread whose body returned, or in the Resident check of the Wake that
// releases its joiner — surfaces on Run's caller with the same value,
// not as a "sched: … panicked" guest error, and leaves no goroutine
// behind.
func TestRunReraisesManagerPanic(t *testing.T) {
	type panicky struct {
		name   string
		policy Policy
		wrap   func(m core.Manager, val any) core.Manager
	}
	var cases []panicky
	for _, nth := range []int{1, 2, 5} {
		cases = append(cases, panicky{fmt.Sprintf("switch=%d", nth), FIFO, func(m core.Manager, val any) core.Manager {
			return &panicOnSwitch{Manager: m, n: nth, val: val}
		}})
	}
	cases = append(cases,
		panicky{"exit", FIFO, func(m core.Manager, val any) core.Manager {
			return &panicOnExit{Manager: m, val: val}
		}},
		panicky{"joiner wake", WorkingSet, func(m core.Manager, val any) core.Manager {
			return &panicOnResident{Manager: m, val: val}
		}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			val := &struct{ name string }{c.name}
			k := NewKernel(c.wrap(core.New(core.SchemeNS, core.Config{Windows: 6}), val), c.policy)
			var workers []*TCB
			for i := 0; i < 3; i++ {
				workers = append(workers, k.Spawn(fmt.Sprint("t", i), func(e *Env) {
					for j := 0; j < 4; j++ {
						e.Call(func(e *Env) { e.Yield() })
					}
				}))
			}
			k.Spawn("joiner", func(e *Env) {
				for _, w := range workers {
					e.Join(w)
				}
			})
			got, err := runCatching(k)
			if got != val {
				t.Fatalf("Run returned %v and panicked with %v, want a panic with %v", err, got, val)
			}
			if n := settledGoroutines(before); n > before {
				t.Errorf("%d goroutines before Run, %d after", before, n)
			}
		})
	}
}

// TestYieldDoesNotAllocate pins a dispatch at zero heap allocations,
// with the audit off and armed: a thread's coroutine is made once, at
// its first dispatch, every later switch resumes it, and the audit
// after each switch walks the window file in place.
func TestYieldDoesNotAllocate(t *testing.T) {
	defer core.SetInvariantChecks(core.InvariantChecksEnabled())
	for _, audit := range []bool{false, true} {
		t.Run(auditName(audit), func(t *testing.T) {
			core.SetInvariantChecks(audit)
			k := newKernel(core.SchemeSP, 8, FIFO)
			var allocs float64
			done := false
			k.Spawn("measurer", func(e *Env) {
				e.Yield() // the partner's coroutine exists from here on
				allocs = testing.AllocsPerRun(100, e.Yield)
				done = true
			})
			k.Spawn("partner", func(e *Env) {
				for !done {
					e.Yield()
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("a two-thread Env.Yield: %v allocations, want 0", allocs)
			}
		})
	}
}

// BenchmarkYieldHandoff measures one scheduler handoff: two threads
// alternate Env.Yield, so each op is one dispatch, a switch from the
// yielding thread's coroutine to Run's loop and on to the other's. It
// is the in-repository counterpart of perfbench's sched.handoff.ns.
func BenchmarkYieldHandoff(b *testing.B) {
	// TestMain arms the invariant audit for this binary; it re-verifies
	// the window file on every switch, so it is off while measuring.
	audit := core.InvariantChecksEnabled()
	core.SetInvariantChecks(false)
	defer core.SetInvariantChecks(audit)
	k := newKernel(core.SchemeSP, 8, FIFO)
	left := b.N
	for i := 0; i < 2; i++ {
		k.Spawn(fmt.Sprint("yielder", i), func(e *Env) {
			for left > 0 {
				left--
				e.Yield()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
