package isa_test

// Typed guest-fault tests: every guest-triggerable failure must surface
// as a *fault.GuestFault (never a panic) stamped with the faulting PC
// and the cycle count at the fault.

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

// TestGuestFaultTyped pins the fault taxonomy: each misbehaving program
// yields the expected fault kind as a typed error, at the faulting
// word's PC, stamped with the cycle counter's total.
func TestGuestFaultTyped(t *testing.T) {
	cases := []struct {
		name  string
		kind  fault.Kind
		at    int // index of the faulting word
		words []uint32
	}{
		{"misaligned-load", fault.MisalignedAccess, 1, []uint32{
			isa.EncodeArithImm(isa.Op3Or, 1, 0, 2), // %g1 = 2
			isa.EncodeMemImm(isa.Op3Ld, 2, 1, 0),   // ld [%g1] — misaligned
		}},
		{"misaligned-store", fault.MisalignedAccess, 1, []uint32{
			isa.EncodeArithImm(isa.Op3Or, 1, 0, 6),
			isa.EncodeMemImm(isa.Op3Sth, 2, 1, 1), // sth at odd address
		}},
		{"out-of-range-store", fault.OutOfRangeMemory, 1, []uint32{
			isa.EncodeSethi(1, isa.MemCeiling>>10), // %g1 = ceiling
			isa.EncodeMemImm(isa.Op3St, 2, 1, 0),   // st above the guest ceiling
		}},
		{"division-by-zero", fault.DivisionByZero, 1, []uint32{
			isa.EncodeArithImm(isa.Op3Or, 1, 0, 7),
			isa.EncodeArith(isa.Op3SDiv, 2, 1, 0), // %g2 = %g1 / %g0
		}},
		{"restore-past-outermost", fault.InvalidWindowOp, 0, []uint32{
			isa.EncodeArith(isa.Op3Restore, 0, 0, 0), // no frame to restore
		}},
		{"illegal-op3", fault.IllegalInstruction, 0, []uint32{
			0x81700000, // op=2 with an op3 the interpreter does not implement
		}},
		{"unknown-trap", fault.IllegalInstruction, 0, []uint32{
			isa.EncodeArithImm(isa.Op3Ticc, 0, 0, 63), // ta 63: unassigned
		}},
		{"step-limit", fault.StepLimit, 0, []uint32{
			isa.EncodeBranch(isa.CondA, 0), // ba . — spins forever
		}},
	}
	for _, tc := range cases {
		for _, s := range core.Schemes {
			t.Run(fmt.Sprintf("%s/%v", tc.name, s), func(t *testing.T) {
				words := append([]uint32(nil), tc.words...)
				words = append(words, isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt))
				m, _, err := runWords(s, 4, words, 500)
				var gf *fault.GuestFault
				if !errors.As(err, &gf) {
					t.Fatalf("error %v is not a *fault.GuestFault", err)
				}
				if gf.Kind != tc.kind {
					t.Errorf("fault kind = %v, want %v", gf.Kind, tc.kind)
				}
				if want := uint32(progOrigin + 4*tc.at); gf.PC != want {
					t.Errorf("fault PC %#x, want %#x", gf.PC, want)
				}
				if total := m.Mgr.Cycles().Total(); gf.Cycle != total {
					t.Errorf("fault cycle %d, counter %d", gf.Cycle, total)
				}
			})
		}
	}
}

// FuzzGuestFaultTyped feeds arbitrary word SEQUENCES (not single
// words) through the interpreter. Whatever the program does — run,
// halt, or fault — no panic may escape, and any error must be a typed
// *fault.GuestFault.
func FuzzGuestFaultTyped(f *testing.F) {
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
		_, _, err := runWords(s, 4, words, 2_000)
		var gf *fault.GuestFault
		if err != nil && !errors.As(err, &gf) {
			t.Fatalf("untyped guest error: %v", err)
		}
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
// InvalidWindowOp guest fault at depth 1,023 instead of spilling
// outside the area.
func TestSavePastSaveAreaFaults(t *testing.T) {
	p := asm.MustAssemble(recurseSrc, progOrigin)
	for _, s := range core.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			m, _, err := runWords(s, 8, p.Words, 100_000)
			var gf *fault.GuestFault
			if !errors.As(err, &gf) || gf.Kind != fault.InvalidWindowOp {
				t.Fatalf("%v, want an InvalidWindowOp guest fault", err)
			}
			if d := m.Mgr.Running().Depth(); d != 1023 {
				t.Errorf("faulted at depth %d, want 1023", d)
			}
		})
	}
}
