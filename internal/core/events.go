package core

import (
	"fmt"

	"cyclicwin/internal/regwin"
)

// This file is the core half of the observability layer
// (internal/obs): a nil-checked event hook that reports every
// window-management operation — context switches, saves, restores
// (with their traps) and exits — with cycle timestamps and transfer
// counts. An operation opens an event scope only while it is observed:
// a hook is installed or the invariant audit is armed. Otherwise the
// whole cost is one test (observed: a nil check and a load of the audit
// flag), with no counter snapshot and no deferred close, and the
// default configuration is observationally identical to an
// uninstrumented machine (the figure goldens pin this).

// EventKind classifies one window-management event.
type EventKind uint8

// Event kinds.
const (
	// EvSwitch is a context switch to the event's thread.
	EvSwitch EventKind = iota
	// EvSwitchFlush is the Section 4.4 flushing switch.
	EvSwitchFlush
	// EvSave is a save instruction that did not trap.
	EvSave
	// EvRestore is a restore instruction that did not trap.
	EvRestore
	// EvOverflow is a save that took a window-overflow trap.
	EvOverflow
	// EvUnderflow is a restore that took a window-underflow trap.
	EvUnderflow
	// EvExit is a thread termination releasing its windows.
	EvExit
	// EvMigrate is a forced eviction of a thread's resident windows so
	// it can move to another core's window file.
	EvMigrate
)

// String names the kind as trace renderings print it.
func (k EventKind) String() string {
	switch k {
	case EvSwitch:
		return "switch"
	case EvSwitchFlush:
		return "switch*"
	case EvSave:
		return "save"
	case EvRestore:
		return "restore"
	case EvOverflow:
		return "save/OVF"
	case EvUnderflow:
		return "restore/UNF"
	case EvExit:
		return "exit"
	case EvMigrate:
		return "migrate"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one recorded window-management operation.
type Event struct {
	// Cycle is the simulated clock after the event.
	Cycle uint64 `json:"cycle"`
	// Cost is the cycles charged by the event.
	Cost uint64 `json:"cost"`
	// Moved is the number of windows transferred by the event (trap
	// and switch transfers combined).
	Moved uint64 `json:"moved"`
	// Kind classifies the event; trapped saves and restores arrive
	// already upgraded to EvOverflow/EvUnderflow.
	Kind EventKind `json:"kind"`
	// Thread is the acting thread id (the target for switches).
	Thread int `json:"thread"`
	// CWP and WIM snapshot the window file after the event.
	CWP int         `json:"cwp"`
	WIM regwin.Mask `json:"wim"`
}

// EventHook receives events synchronously, on the simulation's
// goroutine, immediately after each operation completes. Hooks must
// not call back into the manager.
type EventHook func(Event)

// EventSource is implemented by managers that can report window events
// (the NS, SNP and SP schemes and the Reference oracle). Passing nil
// removes the hook.
type EventSource interface {
	SetEventHook(EventHook)
}

// SetEventHook implements EventSource for the three schemes sharing
// the machine state.
func (m *machine) SetEventHook(h EventHook) { m.onEvent = h }

// observed reports whether an operation must open an event scope: a
// hook is installed or the invariant audit is armed. Every scope site
// is
//
//	if m.observed() {
//		defer m.evEnd(kind, thread, m.evBegin())
//	}
//
// so an unobserved operation skips the scope entirely. The close stays
// deferred, so a panicking operation still unwinds the nesting count.
func (m *machine) observed() bool {
	return m.onEvent != nil || invariantChecks.Load()
}

// evSnap is the counter state captured at the start of an event scope;
// evEnd reports the event from the deltas around the operation.
type evSnap struct {
	cycles uint64
	ovf    uint64
	unf    uint64
	tsv    uint64
	trs    uint64
	ssv    uint64
	srs    uint64
	msv    uint64
}

// evBegin opens an event scope; only observed operations call it.
// Scopes nest (SwitchFlush runs Switch inside itself); only the
// outermost scope emits, so a compound operation reports as one event
// per public Manager call.
func (m *machine) evBegin() evSnap {
	m.evNest++
	if m.onEvent == nil || m.evNest > 1 {
		return evSnap{}
	}
	c := &m.cnt
	return evSnap{
		cycles: m.cyc.Total(),
		ovf:    c.OverflowTraps,
		unf:    c.UnderflowTraps,
		tsv:    c.TrapSaves,
		trs:    c.TrapRestores,
		ssv:    c.SwitchSaves,
		srs:    c.SwitchRestores,
		msv:    c.MigrationSaves,
	}
}

// evEnd closes an event scope, emitting the event when this was the
// outermost scope and a hook is installed. When SetInvariantChecks is
// on, the outermost close also runs the scheme's full invariant set
// (invariants.go) against the post-operation state, so every Switch,
// SwitchFlush, Save, Restore, Exit and Evict in an audited process is
// checked once.
func (m *machine) evEnd(kind EventKind, thread int, s evSnap) {
	m.evNest--
	if m.evNest == 0 && invariantChecks.Load() && m.selfVerify != nil {
		if err := m.selfVerify(); err != nil {
			panic(fmt.Sprintf("core: invariant violation after %v: %v", kind, err))
		}
	}
	if m.onEvent == nil || m.evNest > 0 {
		return
	}
	c := &m.cnt
	ev := Event{
		Cycle: m.cyc.Total(),
		Cost:  m.cyc.Total() - s.cycles,
		Moved: (c.TrapSaves - s.tsv) + (c.TrapRestores - s.trs) +
			(c.SwitchSaves - s.ssv) + (c.SwitchRestores - s.srs) +
			(c.MigrationSaves - s.msv),
		Kind:   kind,
		Thread: thread,
		CWP:    m.file.CWP(),
		WIM:    m.file.WIM(),
	}
	switch {
	case kind == EvSave && c.OverflowTraps > s.ovf:
		ev.Kind = EvOverflow
	case kind == EvRestore && c.UnderflowTraps > s.unf:
		ev.Kind = EvUnderflow
	}
	m.onEvent(ev)
}
