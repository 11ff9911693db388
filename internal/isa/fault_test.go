package isa_test

// Typed guest-fault tests: every guest-triggerable failure must surface
// as a *fault.GuestFault (never a panic), and the fast and slow
// interpreter paths must report the same fault kind at the same PC and
// the same cycle count.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"cyclicwin/internal/asm"
	"cyclicwin/internal/core"
	"cyclicwin/internal/fault"
	"cyclicwin/internal/isa"
)

// driveErr is drive returning the error value itself, for errors.As.
func (d *diffMachine) driveErr(limit uint64) error {
	for i := 0; ; i++ {
		y, err := d.cpu.Run(limit)
		if err != nil {
			return err
		}
		if !y {
			return nil
		}
		if i > 1000 {
			return errors.New("diff: yield livelock")
		}
	}
}

// TestGuestFaultTyped pins the fault taxonomy: each misbehaving program
// yields the expected fault kind as a typed error — identically on both
// interpreter paths, with matching PC and cycle fields.
func TestGuestFaultTyped(t *testing.T) {
	cases := []struct {
		name  string
		kind  fault.Kind
		words []uint32
	}{
		{"misaligned-load", fault.MisalignedAccess, []uint32{
			isa.EncodeArithImm(isa.Op3Or, 1, 0, 2), // %g1 = 2
			isa.EncodeMemImm(isa.Op3Ld, 2, 1, 0),   // ld [%g1] — misaligned
		}},
		{"misaligned-store", fault.MisalignedAccess, []uint32{
			isa.EncodeArithImm(isa.Op3Or, 1, 0, 6),
			isa.EncodeMemImm(isa.Op3Sth, 2, 1, 1), // sth at odd address
		}},
		{"out-of-range-store", fault.OutOfRangeMemory, []uint32{
			isa.EncodeSethi(1, isa.MemCeiling>>10), // %g1 = ceiling
			isa.EncodeMemImm(isa.Op3St, 2, 1, 0),   // st above the guest ceiling
		}},
		{"division-by-zero", fault.DivisionByZero, []uint32{
			isa.EncodeArithImm(isa.Op3Or, 1, 0, 7),
			isa.EncodeArith(isa.Op3SDiv, 2, 1, 0), // %g2 = %g1 / %g0
		}},
		{"restore-past-outermost", fault.InvalidWindowOp, []uint32{
			isa.EncodeArith(isa.Op3Restore, 0, 0, 0), // no frame to restore
		}},
		{"illegal-op3", fault.IllegalInstruction, []uint32{
			0x81700000, // op=2 with an op3 no interpreter implements
		}},
		{"unknown-trap", fault.IllegalInstruction, []uint32{
			isa.EncodeArithImm(isa.Op3Ticc, 0, 0, 63), // ta 63: unassigned
		}},
		{"step-limit", fault.StepLimit, []uint32{
			isa.EncodeBranch(isa.CondA, 0), // ba . — spins forever
		}},
	}
	for _, tc := range cases {
		for _, s := range core.Schemes {
			t.Run(fmt.Sprintf("%s/%v", tc.name, s), func(t *testing.T) {
				words := append([]uint32(nil), tc.words...)
				words = append(words, isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt))
				slow := newDiffMachine(s, 4, words, false)
				fast := newDiffMachine(s, 4, words, true)
				errSlow := slow.driveErr(500)
				errFast := fast.driveErr(500)

				var gfSlow, gfFast *fault.GuestFault
				if !errors.As(errSlow, &gfSlow) {
					t.Fatalf("slow path error %v is not a *fault.GuestFault", errSlow)
				}
				if !errors.As(errFast, &gfFast) {
					t.Fatalf("fast path error %v is not a *fault.GuestFault", errFast)
				}
				if gfSlow.Kind != tc.kind {
					t.Errorf("fault kind = %v, want %v", gfSlow.Kind, tc.kind)
				}
				if errSlow.Error() != errFast.Error() {
					t.Errorf("fault rendering diverges:\n slow %q\n fast %q", errSlow, errFast)
				}
				if gfSlow.PC != gfFast.PC {
					t.Errorf("fault PC diverges: slow %#x fast %#x", gfSlow.PC, gfFast.PC)
				}
				if gfSlow.Cycle != gfFast.Cycle {
					t.Errorf("fault cycle diverges: slow %d fast %d", gfSlow.Cycle, gfFast.Cycle)
				}
				compareState(t, slow, fast, errString(errSlow), errString(errFast))
			})
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestChaosICacheFlushIsNeutral arms the predecode-cache invalidation
// chaos point on the fast path and checks the run stays byte-identical
// to an unperturbed slow run: dropping decoded pages may only cost host
// time, never change guest-visible state or simulated cycles.
func TestChaosICacheFlushIsNeutral(t *testing.T) {
	program := []uint32{
		isa.EncodeArithImm(isa.Op3Or, 8, 0, 9),
		isa.EncodeCall(7),
		isa.EncodeArithImm(isa.Op3Or, 5, 8, 0),
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapPutc),
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapYield),
		isa.EncodeArithImm(isa.Op3SDiv, 6, 5, 7),
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt),
		0,
		// fact(n) through real windows (word 8):
		isa.EncodeArithImm(isa.Op3Save, 14, 14, -96),
		isa.EncodeArithImm(isa.Op3SubCC, 0, 24, 1),
		isa.EncodeBranch(isa.CondLE, 5),
		isa.EncodeArithImm(isa.Op3Sub, 8, 24, 1),
		isa.EncodeCall(-3),
		isa.EncodeArith(isa.Op3SMul, 24, 8, 24),
		isa.EncodeBranch(isa.CondA, 2),
		isa.EncodeArithImm(isa.Op3Or, 24, 0, 1),
		0,
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),
		isa.EncodeArithImm(isa.Op3Jmpl, 0, 15, 8),
	}
	for _, s := range core.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			slow := newDiffMachine(s, 4, program, false)
			fast := newDiffMachine(s, 4, program, true)
			inj := fault.NewInjector(42)
			inj.Enable(fault.PointICacheFlush, 20)
			fast.cpu.SetChaos(inj)
			errSlow := slow.drive(1_000_000)
			errFast := fast.drive(1_000_000)
			compareState(t, slow, fast, errSlow, errFast)
			if inj.Fired(fault.PointICacheFlush) == 0 {
				t.Fatal("chaos point never fired; the test exercised nothing")
			}
		})
	}
}

// FuzzGuestFaultParity feeds arbitrary word SEQUENCES (not single
// words) through both interpreter paths. Whatever the program does —
// run, halt, or fault — neither path may panic, both must agree on all
// observable state, and any error must be a typed *fault.GuestFault
// carrying the same kind, PC and cycle on both paths.
func FuzzGuestFaultParity(f *testing.F) {
	seed := func(words ...uint32) []byte {
		b := make([]byte, 4*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint32(b[4*i:], w)
		}
		return b
	}
	f.Add(seed(isa.EncodeArithImm(isa.Op3Or, 1, 0, 2), isa.EncodeMemImm(isa.Op3Ld, 2, 1, 0)), uint8(0))
	f.Add(seed(isa.EncodeArith(isa.Op3Restore, 0, 0, 0)), uint8(1))
	f.Add(seed(isa.EncodeArith(isa.Op3SDiv, 8, 8, 0), isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt)), uint8(2))
	f.Add(seed(isa.EncodeSethi(1, isa.MemCeiling>>10), isa.EncodeMemImm(isa.Op3St, 2, 1, 0)), uint8(0))
	f.Add(seed(0x81700000, 0xffffffff, 0), uint8(1))
	f.Add(seed(isa.EncodeBranch(isa.CondA, 0)), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, schemeSel uint8) {
		if len(raw) > 1024 {
			raw = raw[:1024]
		}
		words := make([]uint32, 0, len(raw)/4+1)
		for i := 0; i+4 <= len(raw); i += 4 {
			words = append(words, binary.LittleEndian.Uint32(raw[i:]))
		}
		words = append(words, isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt))
		s := core.Schemes[int(schemeSel)%len(core.Schemes)]
		slow := newDiffMachine(s, 4, words, false)
		fast := newDiffMachine(s, 4, words, true)
		errSlow := slow.driveErr(2_000)
		errFast := fast.driveErr(2_000)
		if (errSlow == nil) != (errFast == nil) {
			t.Fatalf("error divergence:\n slow: %v\n fast: %v", errSlow, errFast)
		}
		if errSlow != nil {
			var gfSlow, gfFast *fault.GuestFault
			if !errors.As(errSlow, &gfSlow) {
				t.Fatalf("slow path leaked an untyped guest error: %v", errSlow)
			}
			if !errors.As(errFast, &gfFast) {
				t.Fatalf("fast path leaked an untyped guest error: %v", errFast)
			}
			if gfSlow.Kind != gfFast.Kind || gfSlow.PC != gfFast.PC || gfSlow.Cycle != gfFast.Cycle {
				t.Fatalf("fault identity diverges:\n slow kind=%v pc=%#x cycle=%d\n fast kind=%v pc=%#x cycle=%d",
					gfSlow.Kind, gfSlow.PC, gfSlow.Cycle, gfFast.Kind, gfFast.PC, gfFast.Cycle)
			}
		}
		compareState(t, slow, fast, errString(errSlow), errString(errFast))
	})
}

// recurseSrc recurses %o0 levels deep through real save instructions,
// writing each level's depth into its %l0.
const recurseSrc = `
start:
	set 1100, %o0
	call rec
	ta 0
rec:
	save %sp, -96, %sp
	mov %i0, %l0
	subcc %i0, 1, %o0
	be done
	call rec
done:
	restore
	ret
`

// TestSavePastSaveAreaFaults recurses deeper than the thread's
// 1,024-frame save area. The save that would overrun it must raise an
// InvalidWindowOp guest fault at depth 1,023, identically on both
// interpreter paths, instead of spilling outside the area.
func TestSavePastSaveAreaFaults(t *testing.T) {
	p := asm.MustAssemble(recurseSrc, diffOrigin)
	for _, s := range core.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			slow := newDiffMachine(s, 8, p.Words, false)
			fast := newDiffMachine(s, 8, p.Words, true)
			errSlow, errFast := slow.driveErr(100_000), fast.driveErr(100_000)
			var gf *fault.GuestFault
			if !errors.As(errSlow, &gf) || gf.Kind != fault.InvalidWindowOp {
				t.Fatalf("slow path: %v, want an InvalidWindowOp guest fault", errSlow)
			}
			compareState(t, slow, fast, errString(errSlow), errString(errFast))
			if d := slow.mgr.Running().Depth(); d != 1023 {
				t.Errorf("faulted at depth %d, want 1023", d)
			}
		})
	}
}
