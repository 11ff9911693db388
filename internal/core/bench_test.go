package core

import "testing"

// warmPair returns a manager of the given scheme with two threads that
// have each been switched in once, A running with a region of two
// windows, so later saves and restores at depth 0 and 1 do not trap.
func warmPair(s Scheme) (m Manager, a, b *Thread) {
	m = New(s, Config{Windows: 8})
	a, b = m.NewThread(0, "A"), m.NewThread(1, "B")
	m.Switch(b)
	m.Switch(a)
	m.Save()
	m.Restore()
	return m, a, b
}

// BenchmarkSaveRestore measures one save and one restore that do not
// trap, per scheme, with the audit off and no event hook: the cost a
// procedure call pays on a window file that has room.
func BenchmarkSaveRestore(b *testing.B) {
	defer SetInvariantChecks(InvariantChecksEnabled())
	SetInvariantChecks(false)
	for _, s := range Schemes {
		b.Run(s.String(), func(b *testing.B) {
			m, _, _ := warmPair(s)
			traps := m.Counters().OverflowTraps + m.Counters().UnderflowTraps
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Save()
				m.Restore()
			}
			b.StopTimer()
			if m.Counters().OverflowTraps+m.Counters().UnderflowTraps != traps {
				b.Fatal("a measured save or restore trapped")
			}
		})
	}
}

// BenchmarkSwitch measures one context switch between two warmed
// threads at depth 0, per scheme, with the audit off and no event hook.
// NS moves one window each way; SNP and SP move none.
func BenchmarkSwitch(b *testing.B) {
	defer SetInvariantChecks(InvariantChecksEnabled())
	SetInvariantChecks(false)
	for _, s := range Schemes {
		b.Run(s.String(), func(b *testing.B) {
			m, a, t := warmPair(s)
			m.Switch(t) // touch the save-area pages and cost buckets
			m.Switch(a)
			next := [2]*Thread{t, a}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Switch(next[i&1])
			}
		})
	}
}
