package cycles

import "testing"

// TestTable2Calibration pins the composed context-switch costs inside
// the measured ranges of Table 2 of the paper.
func TestTable2Calibration(t *testing.T) {
	within := func(name string, got, lo, hi uint64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %d cycles, want within [%d,%d]", name, got, lo, hi)
		}
	}
	// NS: k saves + 1 restore.
	for k := uint64(1); k <= 6; k++ {
		got := SwitchBaseNS + k*SwitchSaveNS + SwitchRestoreNS
		lo := 145 + (k-1)*36
		within("NS k saves+1 restore", got, lo, lo+4)
	}
	// SNP rows.
	within("SNP 0/0", SwitchBaseSNP, 113, 118)
	within("SNP 0/1", SwitchBaseSNP+SwitchRestoreSNP, 142, 147)
	within("SNP 1/0", SwitchBaseSNP+SwitchSaveSNP, 162, 171)
	within("SNP 1/1", SwitchBaseSNP+SwitchSaveSNP+SwitchRestoreSNP, 187, 196)
	// SP rows.
	within("SP 0/0", SwitchBaseSP, 93, 98)
	within("SP 0/1", SwitchBaseSP+SwitchRestoreSP, 136, 141)
	within("SP 1/1", SwitchBaseSP+SwitchSaveSP+SwitchRestoreSP, 180, 197)
	within("SP 2/1", SwitchBaseSP+2*SwitchSaveSP+SwitchRestoreSP, 220, 237)
}

// TestTrapCheaperThanTrapFreeFlush checks the relation the paper uses to
// motivate the flushing switch: saving a window via an overflow trap is
// more expensive than flushing it at switch time, by the trap
// entry/exit overhead.
func TestTrapCheaperThanTrapFreeFlush(t *testing.T) {
	if OverflowTrap <= SaveWindow {
		t.Errorf("OverflowTrap (%d) must exceed a plain window save (%d)", OverflowTrap, SaveWindow)
	}
	if OverflowTrap-SaveWindow-WIMUpdate != TrapEnterExit {
		t.Errorf("overflow trap overhead = %d, want TrapEnterExit %d",
			OverflowTrap-SaveWindow-WIMUpdate, TrapEnterExit)
	}
}

// TestInPlaceUnderflowCost documents that the proposed handler pays a
// small premium per trap (in-register copy + restore emulation) over the
// conventional one, in exchange for never spilling on underflow.
func TestInPlaceUnderflowCost(t *testing.T) {
	if UnderflowTrapInPlace <= UnderflowTrapConventional-WIMUpdate {
		t.Error("in-place underflow should cost at least the conventional handler minus the WIM move")
	}
	diff := UnderflowTrapInPlace - (UnderflowTrapConventional - WIMUpdate)
	if diff != InRegisterCopy+RestoreEmulation {
		t.Errorf("in-place premium = %d, want %d", diff, InRegisterCopy+RestoreEmulation)
	}
}
