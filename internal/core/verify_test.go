package core

import "testing"

// auditState is a valid machine to corrupt: s is suspended with three
// resident windows (SNP, SP; under NS it is windowless with its frames
// saved), r runs one window with two frames saved, and w has never run.
type auditState struct {
	mc      *machine
	s, r, w *Thread
}

// newAuditState builds the state on a 6-window file: r calls twice and
// flushes, s calls twice, and r comes back with one window. Under SP
// the file is then full: s's three windows and PRW, r's window and PRW.
func newAuditState(t *testing.T, sc Scheme) *auditState {
	t.Helper()
	m := New(sc, Config{Windows: 6})
	s, w, r := m.NewThread(0, "S"), m.NewThread(1, "W"), m.NewThread(2, "R")
	m.Switch(r)
	m.Save()
	m.Save()
	m.SwitchFlush(s)
	m.Save()
	m.Save()
	m.Switch(r)
	mc := machineOf(m)
	if err := mc.Verify(); err != nil {
		t.Fatalf("%v: the state to corrupt is already invalid: %v", sc, err)
	}
	return &auditState{mc: mc, s: s, r: r, w: w}
}

// free returns a slot that is neither owned nor globally reserved.
func (a *auditState) free(t *testing.T) int {
	t.Helper()
	for w, sl := range a.mc.slots {
		if sl.owner == nil && w != a.mc.reserved {
			return w
		}
	}
	t.Fatal("no free slot")
	return noSlot
}

// TestVerifyRejectsCorruption corrupts one invariant of a valid state
// per row and asserts that Verify reports it. Where one field alone
// would break several invariants at once, the row adjusts the others
// so that only its own check can catch it; the rows so pin every check
// the audit makes, whatever the wording of its errors.
func TestVerifyRejectsCorruption(t *testing.T) {
	var (
		all     = Schemes
		global  = []Scheme{SchemeNS, SchemeSNP}
		sharing = []Scheme{SchemeSNP, SchemeSP}
	)
	rows := []struct {
		name    string
		schemes []Scheme
		corrupt func(t *testing.T, a *auditState)
	}{
		{"slot owned outside its owner's region", global, func(t *testing.T, a *auditState) {
			a.mc.slots[a.free(t)] = slot{owner: a.r}
		}},
		{"freed slot in the middle of a region", sharing, func(t *testing.T, a *auditState) {
			a.mc.slots[a.mc.file.Above(a.s.bottom)] = slot{}
		}},
		{"PRW under a global reserved window", global, func(t *testing.T, a *auditState) {
			a.mc.slots[a.free(t)] = slot{owner: a.r, prw: true}
		}},
		{"SP PRW left behind when its region shrank", []Scheme{SchemeSP}, func(t *testing.T, a *auditState) {
			a.mc.slots[a.s.high] = slot{}
			a.s.high = a.mc.file.Below(a.s.high)
			a.s.cwp = a.s.high
			a.s.saved++
		}},
		{"PRW field naming a slot the table does not", all, func(t *testing.T, a *auditState) {
			if a.r.prw == noSlot {
				a.r.prw = a.free(t)
			} else {
				a.mc.slots[a.r.prw] = slot{}
			}
		}},
		{"second PRW the field does not name", []Scheme{SchemeSP}, func(t *testing.T, a *auditState) {
			// Shrink s's region as above, but move its PRW down with
			// it and leave the old PRW slot marked.
			a.mc.slots[a.s.high] = slot{owner: a.s, prw: true}
			a.s.prw = a.s.high
			a.s.high = a.mc.file.Below(a.s.high)
			a.s.cwp = a.s.high
			a.s.saved++
		}},
		{"suspended thread with dead windows", sharing, func(t *testing.T, a *auditState) {
			a.s.cwp = a.mc.file.Below(a.s.high)
			a.s.saved++
		}},
		{"saved off by one", all, func(t *testing.T, a *auditState) {
			a.r.saved++
		}},
		{"CWP outside its region", all, func(t *testing.T, a *auditState) {
			a.mc.file.SetCWP(a.mc.file.Above(a.r.high))
			a.r.saved--
		}},
		{"windowless thread holding a PRW", all, func(t *testing.T, a *auditState) {
			a.w.prw = a.r.bottom
		}},
		{"windowless thread with a bad saved", all, func(t *testing.T, a *auditState) {
			a.w.saved = a.w.depth + 2
		}},
		{"thread with windows that owns no slot", all, func(t *testing.T, a *auditState) {
			a.w.bottom, a.w.high, a.w.cwp = a.r.bottom, a.r.bottom, a.r.bottom
		}},
		{"thread of a multi-core group owning a slot but not its stack-bottom", global, func(t *testing.T, a *auditState) {
			f := a.free(t)
			a.mc.multi = true // the thread walk leaves such a thread to its core
			a.mc.slots[f] = slot{owner: a.w}
			a.w.bottom, a.w.high, a.w.cwp = a.mc.file.Below(f), f, f
		}},
		{"owned reserved slot", global, func(t *testing.T, a *auditState) {
			a.mc.reserved = a.r.bottom
		}},
		{"flipped WIM bit", all, func(t *testing.T, a *auditState) {
			w := a.r.bottom
			a.mc.file.SetInvalid(w, !a.mc.file.Invalid(w))
		}},
		{"NS reserved not below the running bottom", []Scheme{SchemeNS}, func(t *testing.T, a *auditState) {
			a.mc.file.SetInvalid(a.mc.reserved, false)
			a.mc.reserved = a.mc.file.Below(a.mc.reserved)
			a.mc.file.SetInvalid(a.mc.reserved, true)
		}},
		{"slot owned by a thread whose HasWindows is false", global, func(t *testing.T, a *auditState) {
			a.mc.slots[a.free(t)] = slot{owner: a.w}
		}},
	}
	for _, row := range rows {
		for _, sc := range row.schemes {
			t.Run(sc.String()+"/"+row.name, func(t *testing.T) {
				a := newAuditState(t, sc)
				row.corrupt(t, a)
				if err := a.mc.Verify(); err == nil {
					t.Error("Verify accepted the corrupted state")
				} else {
					t.Log(err)
				}
			})
		}
	}
}
