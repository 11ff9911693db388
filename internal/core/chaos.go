package core

// ChaosRoundTrip forcibly spills every resident live window of the
// running thread to its memory save area and immediately reloads it, in
// stack order. It exercises the same pushFrame/popFrame machinery as
// the real overflow/underflow paths but is observationally neutral: no
// cycles are charged, no counters move, and the register file ends
// byte-identical (a spill and a fill are pure copies). The fault
// injector's flush-reload point drives this to shake out any hidden
// coupling between a window's slot residency and its contents.
func (m *machine) ChaosRoundTrip() {
	t := m.running
	if t == nil || !t.HasWindows() {
		return
	}
	var slots []int
	m.region(t.bottom, m.file.CWP(), func(w int) { slots = append(slots, w) })
	for _, w := range slots {
		t.pushFrame(m.mem, m.file, w)
	}
	for i := len(slots) - 1; i >= 0; i-- {
		t.popFrame(m.mem, m.file, slots[i])
	}
}
