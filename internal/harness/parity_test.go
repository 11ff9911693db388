package harness

import (
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/obs"
	"cyclicwin/internal/regwin"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/spell"
	"cyclicwin/internal/stats"
)

// deltaRecorder is the oracle for the in-core event hook: it wraps a
// core.Manager and reconstructs one event per call from the cycle and
// counter deltas around it, the algorithm of the trace decorator the
// hook replaced. The parity test runs the same deterministic cell once
// under this recorder and once under the hook-based obs.Tracer; every
// field of every event must agree, which pins that each manager's hook
// reports exactly what the deltas imply.
type deltaRecorder struct {
	core.Manager
	file   *regwin.File
	events []core.Event
}

func newDeltaRecorder(m core.Manager) *deltaRecorder {
	d := &deltaRecorder{Manager: m}
	if f, ok := m.(interface{ File() *regwin.File }); ok {
		d.file = f.File()
	}
	return d
}

func (d *deltaRecorder) record(kind core.EventKind, thread int, before stats.Counters, beforeCycles uint64) {
	c := d.Manager.Counters()
	ev := core.Event{
		Cycle:  d.Manager.Cycles().Total(),
		Kind:   kind,
		Thread: thread,
		Cost:   d.Manager.Cycles().Total() - beforeCycles,
		Moved: (c.TrapSaves - before.TrapSaves) + (c.TrapRestores - before.TrapRestores) +
			(c.SwitchSaves - before.SwitchSaves) + (c.SwitchRestores - before.SwitchRestores),
	}
	switch {
	case kind == core.EvSave && c.OverflowTraps > before.OverflowTraps:
		ev.Kind = core.EvOverflow
	case kind == core.EvRestore && c.UnderflowTraps > before.UnderflowTraps:
		ev.Kind = core.EvUnderflow
	}
	if d.file != nil {
		ev.CWP = d.file.CWP()
		ev.WIM = d.file.WIM()
	}
	d.events = append(d.events, ev)
}

func (d *deltaRecorder) snapshot() (stats.Counters, uint64) {
	return *d.Manager.Counters(), d.Manager.Cycles().Total()
}

func (d *deltaRecorder) Switch(t *core.Thread) {
	c, cy := d.snapshot()
	d.Manager.Switch(t)
	d.record(core.EvSwitch, t.ID, c, cy)
}

func (d *deltaRecorder) SwitchFlush(t *core.Thread) {
	c, cy := d.snapshot()
	d.Manager.SwitchFlush(t)
	d.record(core.EvSwitchFlush, t.ID, c, cy)
}

func (d *deltaRecorder) Save() {
	c, cy := d.snapshot()
	id := d.Manager.Running().ID
	d.Manager.Save()
	d.record(core.EvSave, id, c, cy)
}

func (d *deltaRecorder) Restore() {
	c, cy := d.snapshot()
	id := d.Manager.Running().ID
	d.Manager.Restore()
	d.record(core.EvRestore, id, c, cy)
}

func (d *deltaRecorder) Exit() {
	c, cy := d.snapshot()
	id := d.Manager.Running().ID
	d.Manager.Exit()
	d.record(core.EvExit, id, c, cy)
}

// runParityCell executes one spell-checker cell on the given manager
// (possibly a wrapping recorder).
func runParityCell(t *testing.T, m core.Manager, b Behavior, sz Sizes) {
	t.Helper()
	w := loadWorkload(sz)
	k := sched.NewKernel(m, sched.FIFO)
	if _, err := spell.New(k, spell.Config{
		M: b.M, N: b.N,
		Source: w.source, MainDict: w.main, ForbiddenDict: w.forbidden,
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTracerDecoratorParity is the fig11-style parity check: for every
// scheme and the Reference oracle, a quick cell traced through the
// event hook produces exactly the event sequence a delta-measuring
// decorator reconstructs. The Reference rows pin the oracle's events
// to zero cost, zero moves and an empty window state, switches to the
// running thread included.
func TestTracerDecoratorParity(t *testing.T) {
	sz := Sizes{Draft: 2000, Dict: 3001}
	cells := []struct {
		windows  int
		behavior string
	}{
		{4, "high-fine"},
		{8, "low-medium"},
	}
	schemes := append(append([]core.Scheme{}, core.Schemes...), core.SchemeReference)
	for _, scheme := range schemes {
		for _, cell := range cells {
			b, _ := BehaviorByName(cell.behavior)
			cfg := core.Config{Windows: cell.windows}

			rec := newDeltaRecorder(core.New(scheme, cfg))
			runParityCell(t, rec, b, sz)

			mgr := core.New(scheme, cfg)
			tr := obs.NewTracer(len(rec.events) + 1)
			if !tr.Attach(mgr) {
				t.Fatalf("%v does not expose the event hook", scheme)
			}
			runParityCell(t, mgr, b, sz)

			hook := tr.Events()
			if len(hook) != len(rec.events) {
				t.Fatalf("%v/w%d/%s: hook recorded %d events, decorator %d",
					scheme, cell.windows, b.Name, len(hook), len(rec.events))
			}
			if tr.Total() != uint64(len(rec.events)) {
				t.Fatalf("%v/w%d/%s: tracer dropped events: total %d, want %d",
					scheme, cell.windows, b.Name, tr.Total(), len(rec.events))
			}
			for i := range hook {
				if hook[i] != rec.events[i] {
					t.Fatalf("%v/w%d/%s: event %d differs:\n hook      %+v\n decorator %+v",
						scheme, cell.windows, b.Name, i, hook[i], rec.events[i])
				}
			}
		}
	}
}

// BenchmarkSpellCellUntraced is the baseline for the hook overhead: no
// tracer attached, so every instrumented operation takes the nil-hook
// fast path.
func BenchmarkSpellCellUntraced(b *testing.B) {
	benchWithoutAudit(b)
	bh, _ := BehaviorByName("high-fine")
	sz := Sizes{Draft: 2000, Dict: 3001}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSpellWith(SpellOpts{
			Config: core.Config{Windows: 8}, Scheme: core.SchemeSP,
			Policy: sched.FIFO, Behavior: bh, Sizes: sz,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpellCellTraced runs the same cell with a ring tracer
// attached, for comparison against the untraced baseline.
func BenchmarkSpellCellTraced(b *testing.B) {
	benchWithoutAudit(b)
	bh, _ := BehaviorByName("high-fine")
	sz := Sizes{Draft: 2000, Dict: 3001}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTracer(0)
		if _, err := RunSpellWith(SpellOpts{
			Config: core.Config{Windows: 8}, Scheme: core.SchemeSP,
			Policy: sched.FIFO, Behavior: bh, Sizes: sz,
			OnManager: func(m core.Manager) { tr.Attach(m) },
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTracingDoesNotPerturbResults pins the observability invariant the
// goldens rely on: attaching a tracer changes no simulation outcome.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	sz := Sizes{Draft: 2000, Dict: 3001}
	b, _ := BehaviorByName("high-fine")
	for _, scheme := range core.Schemes {
		plain, err := RunSpellWith(SpellOpts{
			Config: core.Config{Windows: 6}, Scheme: scheme,
			Policy: sched.FIFO, Behavior: b, Sizes: sz,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(0)
		traced, err := RunSpellWith(SpellOpts{
			Config: core.Config{Windows: 6}, Scheme: scheme,
			Policy: sched.FIFO, Behavior: b, Sizes: sz,
			OnManager: func(m core.Manager) { tr.Attach(m) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if traced.Cycles != plain.Cycles || traced.Misspelled != plain.Misspelled ||
			traced.Counters.Switches != plain.Counters.Switches ||
			traced.ThreadSuspensions != plain.ThreadSuspensions {
			t.Fatalf("%v: tracing perturbed the simulation:\n traced %+v\n plain  %+v", scheme, traced, plain)
		}
		if tr.Total() == 0 {
			t.Fatalf("%v: tracer attached but recorded nothing", scheme)
		}
	}
}

// TestEventOrderingUnchangedByInvariantChecks pins that arming the
// runtime invariant audit (core.SetInvariantChecks, on for this whole
// test binary) changes nothing observable in the trace/hook event
// stream: the same cell traced with the audit disabled must produce the
// identical event sequence — same kinds, same order, same cycle stamps,
// same per-event costs and window state. The audit runs inside the
// event scope but after the operation completes, so any perturbation
// here would also invalidate the fig11–15 goldens.
func TestEventOrderingUnchangedByInvariantChecks(t *testing.T) {
	if !core.InvariantChecksEnabled() {
		t.Fatal("invariant checks are not armed; TestMain should have enabled them")
	}
	defer core.SetInvariantChecks(true) // restore for the other tests

	sz := Sizes{Draft: 2000, Dict: 3001}
	b, _ := BehaviorByName("high-fine")
	for _, scheme := range core.Schemes {
		cfg := core.Config{Windows: 6}

		core.SetInvariantChecks(true)
		mgrOn := core.New(scheme, cfg)
		trOn := obs.NewTracer(0)
		if !trOn.Attach(mgrOn) {
			t.Fatalf("%v does not expose the event hook", scheme)
		}
		runParityCell(t, mgrOn, b, sz)

		core.SetInvariantChecks(false)
		mgrOff := core.New(scheme, cfg)
		trOff := obs.NewTracer(0)
		trOff.Attach(mgrOff)
		runParityCell(t, mgrOff, b, sz)
		core.SetInvariantChecks(true)

		on, off := trOn.Events(), trOff.Events()
		if len(on) != len(off) {
			t.Fatalf("%v: %d events with audit on, %d with audit off", scheme, len(on), len(off))
		}
		for i := range on {
			if on[i] != off[i] {
				t.Fatalf("%v: event %d differs under the audit:\n on  %+v\n off %+v", scheme, i, on[i], off[i])
			}
		}
		if mgrOn.Cycles().Total() != mgrOff.Cycles().Total() {
			t.Fatalf("%v: cycle totals differ under the audit: on %d off %d",
				scheme, mgrOn.Cycles().Total(), mgrOff.Cycles().Total())
		}
	}
}
