package isa_test

// Checker-driven audits of the interpreter under the two conditions the
// differential model checker (internal/check) flags as highest-risk:
// self-modifying code whose patched word sits directly behind a
// window-overflow trap, and register values that must survive a full
// wrap of the window file through spill/fill round trips (the register
// file's cached current window). Each asserts the architecturally
// expected final values.

import (
	"fmt"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/isa"
)

// runForG4 runs words on every scheme at each window count and checks
// that the program halts with want in %g4.
func runForG4(t *testing.T, words []uint32, windows []int, want uint32, what string) {
	t.Helper()
	for _, s := range core.Schemes {
		for _, w := range windows {
			t.Run(fmt.Sprintf("%v/w%d", s, w), func(t *testing.T) {
				m, _, err := runWords(s, w, words, 100_000)
				if err != nil {
					t.Fatalf("program faulted: %v", err)
				}
				if got := m.Mgr.Reg(4); got != want {
					t.Fatalf("%%g4 = %d, want %d (%s)", got, want, what)
				}
			})
		}
	}
}

// TestSelfModifyingAcrossWrap alternates a patched instruction inside a
// loop whose every iteration executes a save — on a 3-window file each
// iteration overflows and wraps the file, so the store into the text
// happens while the current window keeps moving. The patched word
// alternates between loading 2 and 1 into %g3, which an accumulator
// sums: 8 passes → 2+1+2+1+2+1+2+1 = 12.
func TestSelfModifyingAcrossWrap(t *testing.T) {
	p1 := isa.EncodeArithImm(isa.Op3Or, 3, 0, 1) // or %g0, 1, %g3
	p2 := isa.EncodeArithImm(isa.Op3Or, 3, 0, 2) // or %g0, 2, %g3
	if p1^p2 != 3 {
		t.Fatalf("patch words differ in %#x, expected only the immediate bits", p1^p2)
	}
	patchAddr := uint32(progOrigin + 7*4)
	words := []uint32{
		isa.EncodeArithImm(isa.Op3Or, 7, 0, 8),                      //  0: %g7 = 8 passes
		isa.EncodeSethi(2, patchAddr>>10),                           //  1: %g2 = hi(addr)
		isa.EncodeArithImm(isa.Op3Or, 2, 2, int32(patchAddr&0x3ff)), //  2: %g2 |= lo(addr)
		isa.EncodeSethi(1, p2>>10),                                  //  3: %g1 = hi(p2)
		isa.EncodeArithImm(isa.Op3Or, 1, 1, int32(p2&0x3ff)),        //  4: %g1 |= lo(p2)
		// loop:
		isa.EncodeArithImm(isa.Op3Save, 14, 14, -96), //  5: save (overflows past pass 2)
		isa.EncodeMem(isa.Op3St, 1, 2, 0),            //  6: st %g1, [%g2] — patch next word
		p1,                                           //  7: PATCHED: %g3 = 1 or 2
		isa.EncodeArith(isa.Op3Add, 4, 4, 3),         //  8: %g4 += %g3
		isa.EncodeArithImm(isa.Op3Xor, 1, 1, 3),      //  9: flip patch for next pass
		isa.EncodeArithImm(isa.Op3SubCC, 7, 7, 1),    // 10: %g7--
		isa.EncodeBranch(isa.CondNE, -6),             // 11: bne loop (word 5)
		// unwind the 8 saves (underflow traps refill spilled frames):
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),            // 12
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),            // 13
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),            // 14
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),            // 15
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),            // 16
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),            // 17
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),            // 18
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),            // 19
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt), // 20
	}
	runForG4(t, words, []int{3, 4, 8}, 12, "patched word executed wrong sequence")
}

// recurseSum recurses depth deep, with every frame defining a
// depth-unique local register (%l1 = depth+5) before the recursive call
// and folding it into the %g4 accumulator after the call returns.
func recurseSum(depth int32) []uint32 {
	return []uint32{
		isa.EncodeArithImm(isa.Op3Or, 8, 0, depth),          // 0: %o0 = depth
		isa.EncodeCall(2),                                   // 1: call f (word 3)
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt), // 2: ta 0
		// f: (word 3)
		isa.EncodeArithImm(isa.Op3Save, 14, 14, -96), // 3: save
		isa.EncodeArithImm(isa.Op3Add, 17, 24, 5),    // 4: %l1 = %i0 + 5
		isa.EncodeArithImm(isa.Op3SubCC, 0, 24, 1),   // 5: cmp %i0, 1
		isa.EncodeBranch(isa.CondLE, 3),              // 6: ble join (word 9)
		isa.EncodeArithImm(isa.Op3Sub, 8, 24, 1),     // 7: %o0 = %i0 - 1
		isa.EncodeCall(-5),                           // 8: call f (word 3)
		// join: (word 9) — %l1 has crossed a spill/fill round trip here
		isa.EncodeArith(isa.Op3Add, 4, 4, 17),     // 9: %g4 += %l1
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),  // 10: restore
		isa.EncodeArithImm(isa.Op3Jmpl, 0, 15, 4), // 11: ret (jmpl %o7+4)
	}
}

// TestLocalsSurviveWrap recurses ten deep on small window files. On a
// 3-window file every frame's local makes a full spill/fill round trip
// through memory, so a stale cached window or a missed refill after an
// underflow trap shows up as a wrong sum. Expected: sum of (depth+5)
// for depth 10..1 = 105.
func TestLocalsSurviveWrap(t *testing.T) {
	runForG4(t, recurseSum(10), []int{3, 4, 6}, 105, "a local was lost across the window wrap")
}

// TestStorePatchesWordAhead has a store inside a loop body patch the
// instruction two slots after it. Every instruction is fetched afresh,
// so the patched word must execute its NEW form in the same pass. The
// patched word's immediate is incremented before each store, so stale
// execution would produce a different sum (0+1+2+3=6) than fresh
// execution (1+2+3+4=10) — the two cannot alias.
func TestStorePatchesWordAhead(t *testing.T) {
	enc0 := isa.EncodeArithImm(isa.Op3Or, 3, 0, 0) // or %g0, 0, %g3
	patchAddr := uint32(progOrigin + 8*4)
	words := []uint32{
		isa.EncodeArithImm(isa.Op3Or, 7, 0, 4),                      //  0: %g7 = 4 passes
		isa.EncodeSethi(2, patchAddr>>10),                           //  1: %g2 = hi(addr)
		isa.EncodeArithImm(isa.Op3Or, 2, 2, int32(patchAddr&0x3ff)), //  2: %g2 |= lo(addr)
		isa.EncodeSethi(1, enc0>>10),                                //  3: %g1 = hi(enc0)
		isa.EncodeArithImm(isa.Op3Or, 1, 1, int32(enc0&0x3ff)),      //  4: %g1 |= lo(enc0)
		// loop:
		isa.EncodeArithImm(isa.Op3Add, 1, 1, 1),             //  5: %g1++ (bumps the patched immediate)
		isa.EncodeMem(isa.Op3St, 1, 2, 0),                   //  6: st %g1, [%g2] — patches word 8
		isa.EncodeArith(isa.Op3Xor, 5, 5, 1),                //  7: %g5 ^= %g1 (post-store, pre-patch slot)
		enc0,                                                //  8: PATCHED: %g3 = pass number
		isa.EncodeArith(isa.Op3Add, 4, 4, 3),                //  9: %g4 += %g3
		isa.EncodeArithImm(isa.Op3SubCC, 7, 7, 1),           // 10: %g7--
		isa.EncodeBranch(isa.CondNE, -6),                    // 11: bne loop (word 5)
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt), // 12
	}
	runForG4(t, words, []int{4}, 10, "patched word executed a stale decode")
}

// TestWindowWrapRecursion drives deep recursion on 3- and 4-window
// files so the function body executes at every CWP while the file wraps
// several times; a window pointer left stale would read another frame's
// registers and corrupt the sum. Depth 40 at (depth+5) per frame: sum
// 45+44+...+6 = 1020.
func TestWindowWrapRecursion(t *testing.T) {
	runForG4(t, recurseSum(40), []int{3, 4}, 1020, "a frame ran with another window's registers")
}
