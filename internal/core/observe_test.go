package core

import (
	"fmt"
	"testing"

	"cyclicwin/internal/cycles"
	"cyclicwin/internal/mem"
)

// machineOf returns the scheme-shared state of an NS, SNP or SP manager.
func machineOf(m Manager) *machine {
	switch x := m.(type) {
	case *NS:
		return &x.machine
	case *SNP:
		return &x.machine
	case *SP:
		return &x.machine
	}
	panic(fmt.Sprintf("no machine behind %T", m))
}

// observation counts what observing a manager sees: audits run through
// its selfVerify and events delivered to its hook.
type observation struct {
	verifies, events int
}

// watch wraps m's audit with a counter and, when hook is set, attaches
// a counting event hook.
func watch(m Manager, hook bool) *observation {
	o := &observation{}
	mc := machineOf(m)
	verify := mc.selfVerify
	mc.selfVerify = func() error {
		o.verifies++
		return verify()
	}
	if hook {
		mc.SetEventHook(func(Event) { o.events++ })
	}
	return o
}

// observedCall is one public Manager call in an observation script.
type observedCall struct {
	name string
	mgr  Manager
	do   func()
}

// expectObserved runs each call and checks that it was audited exactly
// once when the audit is armed and reported exactly once when a hook is
// attached, and neither otherwise; every event scope must be closed
// after each call.
func expectObserved(t *testing.T, audit, hook bool, obs map[Manager]*observation, calls []observedCall) {
	t.Helper()
	want := observation{}
	if audit {
		want.verifies = 1
	}
	if hook {
		want.events = 1
	}
	for i, c := range calls {
		o := obs[c.mgr]
		before := *o
		c.do()
		got := observation{o.verifies - before.verifies, o.events - before.events}
		if got != want {
			t.Errorf("call %d (%s): %d verifies and %d events, want %d and %d",
				i, c.name, got.verifies, got.events, want.verifies, want.events)
		}
		if n := machineOf(c.mgr).evNest; n != 0 {
			t.Errorf("call %d (%s) left %d event scopes open", i, c.name, n)
		}
	}
}

// TestObservationSeesEveryOperation pins that skipping the event scope
// when nothing observes costs armed observation nothing: with the audit
// armed every outermost public call is verified exactly once (a
// SwitchFlush, which runs Switch inside itself, counts once), with a
// hook attached every call is reported exactly once, and with both off
// neither happens. The script covers Switch (to another thread and to
// the running one), SwitchFlush, Save and Restore with and without a
// trap, Exit, and Evict on a two-core group.
func TestObservationSeesEveryOperation(t *testing.T) {
	defer SetInvariantChecks(InvariantChecksEnabled())
	modes := []struct {
		name        string
		audit, hook bool
	}{
		{"audit", true, false},
		{"hook", false, true},
		{"both", true, true},
		{"off", false, false},
	}
	for _, s := range Schemes {
		for _, md := range modes {
			t.Run(s.String()+"/"+md.name, func(t *testing.T) {
				SetInvariantChecks(md.audit)
				observeOneCore(t, s, md.audit, md.hook)
				observeTwoCores(t, s, md.audit, md.hook)
			})
		}
	}
}

// observeOneCore drives one manager through every operation kind and
// checks that saves and restores both trapped and did not.
func observeOneCore(t *testing.T, s Scheme, audit, hook bool) {
	t.Helper()
	m := New(s, Config{Windows: 4})
	obs := map[Manager]*observation{m: watch(m, hook)}
	a, b := m.NewThread(0, "A"), m.NewThread(1, "B")
	f := machineOf(m).file
	var saveTraps, saveFree, restoreTraps, restoreFree int
	save := observedCall{"Save", m, func() {
		if f.SaveWouldTrap() {
			saveTraps++
		} else {
			saveFree++
		}
		m.Save()
	}}
	restore := observedCall{"Restore", m, func() {
		if f.RestoreWouldTrap() {
			restoreTraps++
		} else {
			restoreFree++
		}
		m.Restore()
	}}
	calls := []observedCall{
		{"Switch A", m, func() { m.Switch(a) }},
		save, save, save, save, save,
		restore, restore, save, restore,
		{"Switch B", m, func() { m.Switch(b) }},
		save, save,
		{"SwitchFlush A", m, func() { m.SwitchFlush(a) }},
		{"Switch A again", m, func() { m.Switch(a) }},
		{"SwitchFlush A again", m, func() { m.SwitchFlush(a) }},
		restore, restore, restore,
		{"Exit A", m, func() { m.Exit() }},
		{"Switch B back", m, func() { m.Switch(b) }},
		restore, restore,
		{"Exit B", m, func() { m.Exit() }},
	}
	expectObserved(t, audit, hook, obs, calls)
	if saveTraps == 0 || saveFree == 0 || restoreTraps == 0 || restoreFree == 0 {
		t.Errorf("script ran %d trapping and %d plain saves, %d trapping and %d plain restores; want each nonzero",
			saveTraps, saveFree, restoreTraps, restoreFree)
	}
}

// observeTwoCores evicts a running and a suspended thread in a two-core
// group sharing memory, clock and save areas, and runs the evicted
// thread on the other core.
func observeTwoCores(t *testing.T, s Scheme, audit, hook bool) {
	t.Helper()
	cfg := Config{Windows: 4, Memory: mem.New(), Counter: new(cycles.Counter),
		Stacks: mem.NewStackAllocator(0xfff0000, 1<<16)}
	c0, c1 := New(s, cfg), New(s, cfg)
	obs := map[Manager]*observation{c0: watch(c0, hook), c1: watch(c1, hook)}
	a, b := c0.NewThread(0, "A"), c0.NewThread(1, "B")
	ev0, ev1 := c0.(Migrator), c1.(Migrator)
	calls := []observedCall{
		{"core 0 Switch A", c0, func() { c0.Switch(a) }},
		{"core 0 Save", c0, func() { c0.Save() }},
		{"core 0 Switch B", c0, func() { c0.Switch(b) }},
		{"core 0 Evict suspended A", c0, func() { ev0.Evict(a) }},
		{"core 0 Evict running B", c0, func() { ev0.Evict(b) }},
		{"core 1 Switch A", c1, func() { c1.Switch(a) }},
		{"core 1 Restore", c1, func() { c1.Restore() }},
		{"core 1 Evict running A", c1, func() { ev1.Evict(a) }},
		{"core 1 Evict windowless A", c1, func() { ev1.Evict(a) }},
	}
	expectObserved(t, audit, hook, obs, calls)
	if got := c0.Counters().Migrations + c1.Counters().Migrations; got != 4 {
		t.Errorf("%d migrations counted, want 4", got)
	}
}

// TestUnobservedOperationsDoNotAllocate pins the disarmed hot path at
// zero heap allocations: a Save and Restore pair on every scheme, with
// and without traps, and a switch between two warmed threads.
func TestUnobservedOperationsDoNotAllocate(t *testing.T) {
	defer SetInvariantChecks(InvariantChecksEnabled())
	SetInvariantChecks(false)
	for _, s := range Schemes {
		t.Run(s.String(), func(t *testing.T) {
			m := New(s, Config{Windows: 4})
			a, b := m.NewThread(0, "A"), m.NewThread(1, "B")
			m.Switch(b)
			m.Switch(a)
			if n := testing.AllocsPerRun(100, func() { m.Save(); m.Restore() }); n != 0 {
				t.Errorf("Save+Restore: %v allocations, want 0", n)
			}
			deep := func() {
				for i := 0; i < 6; i++ {
					m.Save()
				}
				for i := 0; i < 6; i++ {
					m.Restore()
				}
			}
			deep() // touch every save-area page the loop reaches
			if n := testing.AllocsPerRun(100, deep); n != 0 {
				t.Errorf("trapping Save+Restore: %v allocations, want 0", n)
			}
			if n := testing.AllocsPerRun(100, func() { m.Switch(b); m.Switch(a) }); n != 0 {
				t.Errorf("Switch: %v allocations, want 0", n)
			}
		})
	}
}
