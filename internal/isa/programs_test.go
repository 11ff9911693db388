package isa_test

// Whole-program tests of the interpreter: recursion through real
// windows on small files, programs that write into their own text,
// step limits and faulting words, randomized programs checked against
// the infinite-window oracle, and two guest threads sharing one window
// file under the scheduler. Each asserts the architecturally expected
// final values.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cyclicwin/internal/asm"
	"cyclicwin/internal/core"
	"cyclicwin/internal/fault"
	"cyclicwin/internal/isa"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/sched"
)

const progOrigin = 0x1000

// runWords loads words at progOrigin and runs them on a fresh machine
// until halt or error, resuming across yields; the step limit bounds
// runaway programs.
func runWords(s core.Scheme, windows int, words []uint32, limit uint64) (*isa.Machine, *isa.CPU, error) {
	m := isa.NewMachine(s, windows)
	for i, w := range words {
		m.Mem.Store32(progOrigin+uint32(4*i), w)
	}
	cpu, err := m.RunProgram(progOrigin, limit)
	return m, cpu, err
}

// TestRecursion exercises deep save/restore chains (overflow and
// underflow traps on small window files) plus multiply, divide,
// console output and a yield: fact(9) through real windows.
func TestRecursion(t *testing.T) {
	fact := []uint32{
		isa.EncodeArithImm(isa.Op3Or, 8, 0, 9), // %o0 = 9
		isa.EncodeCall(7),                      // call fact (at word 8)
		isa.EncodeArithImm(isa.Op3Or, 5, 8, 0), // %g5 = %o0
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapPutc),
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapYield),
		isa.EncodeArithImm(isa.Op3SDiv, 6, 5, 7), // %g6 = %g5 / 7
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt),
		0, // padding (never executed)
		// fact: (word 8)
		isa.EncodeArithImm(isa.Op3Save, 14, 14, -96), // save %sp,-96,%sp
		isa.EncodeArithImm(isa.Op3SubCC, 0, 24, 1),   // cmp %i0, 1
		isa.EncodeBranch(isa.CondLE, 5),              // ble base (word 15)
		isa.EncodeArithImm(isa.Op3Sub, 8, 24, 1),     // %o0 = %i0 - 1
		isa.EncodeCall(-4),                           // call fact (word 8)
		isa.EncodeArith(isa.Op3SMul, 24, 8, 24),      // %i0 = %o0 * %i0
		isa.EncodeBranch(isa.CondA, 2),               // ba out (word 16)
		// base: (word 15)
		isa.EncodeArithImm(isa.Op3Or, 24, 0, 1), // %i0 = 1
		// out: (word 16)
		isa.EncodeArith(isa.Op3Restore, 0, 0, 0),
		isa.EncodeArithImm(isa.Op3Jmpl, 0, 15, 4), // ret (jmpl %o7+4)
	}
	for _, s := range core.Schemes {
		for _, windows := range []int{3, 4, 8, 16} {
			t.Run(fmt.Sprintf("%v/w%d", s, windows), func(t *testing.T) {
				m, cpu, err := runWords(s, windows, fact, 1_000_000)
				if err != nil {
					t.Fatal(err)
				}
				const fact9 = 362_880
				if got := m.Mgr.Reg(5); got != fact9 {
					t.Errorf("%%g5 = %d, want 9! = %d", got, fact9)
				}
				if got := m.Mgr.Reg(6); got != fact9/7 {
					t.Errorf("%%g6 = %d, want 9!/7 = %d", got, fact9/7)
				}
				if got, want := cpu.Console.String(), string([]byte{fact9 & 0xff}); got != want {
					t.Errorf("console %q, want the low byte of 9! %q", got, want)
				}
			})
		}
	}
}

// TestSelfModifying overwrites an already executed instruction and
// loops back over it: the second pass must execute the new word.
func TestSelfModifying(t *testing.T) {
	patch := isa.EncodeArithImm(isa.Op3Or, 2, 0, 42) // or %g0, 42, %g2
	patchAddr := uint32(progOrigin + 6*4)
	words := []uint32{
		isa.EncodeArithImm(isa.Op3Or, 4, 0, 0),                      // 0: %g4 = 0 (pass counter)
		isa.EncodeSethi(1, patch>>10),                               // 1: %g1 = hi(patch)
		isa.EncodeArithImm(isa.Op3Or, 1, 1, int32(patch&0x3ff)),     // 2: %g1 |= lo(patch)
		isa.EncodeSethi(2, patchAddr>>10),                           // 3: %g2 = hi(addr)
		isa.EncodeArithImm(isa.Op3Or, 2, 2, int32(patchAddr&0x3ff)), // 4: %g2 |= lo(addr)
		isa.EncodeBranch(isa.CondA, 1),                              // 5: ba 6 (fall through)
		isa.EncodeArithImm(isa.Op3Or, 3, 0, 1),                      // 6: PATCHED: %g3 = 1
		isa.EncodeArithImm(isa.Op3SubCC, 0, 4, 1),                   // 7: cmp %g4, 1
		isa.EncodeBranch(isa.CondE, 4),                              // 8: be 12 (halt)
		isa.EncodeArithImm(isa.Op3Or, 4, 0, 1),                      // 9: %g4 = 1
		isa.EncodeMem(isa.Op3St, 1, 2, 0),                           // 10: st %g1, [%g2]
		isa.EncodeBranch(isa.CondA, -5),                             // 11: ba 6
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt),         // 12: ta 0
	}
	for _, s := range core.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			m, _, err := runWords(s, 8, words, 10_000)
			if err != nil {
				t.Fatal(err)
			}
			// %g2 becomes 42 only via the patched word.
			if got := m.Mgr.Reg(2); got != 42 {
				t.Fatalf("patched instruction did not execute: %%g2 = %d", got)
			}
			if got := m.Mgr.Reg(3); got != 1 {
				t.Fatalf("original instruction never executed: %%g3 = %d", got)
			}
		})
	}
}

// TestStepLimitOnEveryOffset lands the step limit on every offset of a
// four-instruction loop body: the StepLimit fault must name the word
// that would have run next, and its cycle stamp must be the counter's
// total, one cycle further per executed single-cycle instruction.
func TestStepLimitOnEveryOffset(t *testing.T) {
	words := []uint32{
		isa.EncodeArithImm(isa.Op3Or, 7, 0, 20),             // 0: %g7 = 20
		isa.EncodeArithImm(isa.Op3Add, 1, 1, 3),             // 1: %g1 += 3
		isa.EncodeArith(isa.Op3Xor, 2, 2, 1),                // 2: %g2 ^= %g1
		isa.EncodeArithImm(isa.Op3SubCC, 7, 7, 1),           // 3: %g7--
		isa.EncodeBranch(isa.CondNE, -3),                    // 4: bne word 1
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt), // 5
	}
	var prev uint64
	for limit := uint64(41); limit <= 45; limit++ {
		m, cpu, err := runWords(core.SchemeSP, 8, words, limit)
		var gf *fault.GuestFault
		if !errors.As(err, &gf) || gf.Kind != fault.StepLimit {
			t.Fatalf("limit %d: %v, want a StepLimit guest fault", limit, err)
		}
		if want := uint32(progOrigin + 4*(1+(limit-1)%4)); gf.PC != want {
			t.Errorf("limit %d: fault PC %#x, want %#x", limit, gf.PC, want)
		}
		if cpu.Steps != limit {
			t.Errorf("limit %d: %d steps executed", limit, cpu.Steps)
		}
		if total := m.Mgr.Cycles().Total(); gf.Cycle != total {
			t.Errorf("limit %d: fault cycle %d, counter %d", limit, gf.Cycle, total)
		}
		if prev != 0 && gf.Cycle != prev+1 {
			t.Errorf("limit %d: fault cycle %d, want %d", limit, gf.Cycle, prev+1)
		}
		prev = gf.Cycle
	}
}

// TestPatchedWordFaults has a store on a loop's last pass turn the very
// next word into an unknown software trap, which must then fault.
func TestPatchedWordFaults(t *testing.T) {
	badTrap := isa.EncodeArithImm(isa.Op3Ticc, 0, 0, 77)
	patchAddr := uint32(progOrigin + 8*4)
	words := []uint32{
		isa.EncodeArithImm(isa.Op3Or, 7, 0, 6),                      // 0: %g7 = 6 passes
		isa.EncodeSethi(2, patchAddr>>10),                           // 1
		isa.EncodeArithImm(isa.Op3Or, 2, 2, int32(patchAddr&0x3ff)), // 2
		isa.EncodeSethi(1, badTrap>>10),                             // 3
		isa.EncodeArithImm(isa.Op3Or, 1, 1, int32(badTrap&0x3ff)),   // 4
		// loop: on the last pass the store swaps the nop-ish or below
		// for an unknown trap, which then executes in the same pass.
		isa.EncodeArithImm(isa.Op3SubCC, 7, 7, 1), // 5: %g7--
		isa.EncodeBranch(isa.CondNE, 3),           // 6: bne skip (word 9)
		isa.EncodeMem(isa.Op3St, 1, 2, 0),         // 7: st %g1, [%g2] — patches word 8...
		isa.EncodeArithImm(isa.Op3Or, 3, 0, 1),    // 8: PATCHED target
		// skip:
		isa.EncodeArith(isa.Op3Add, 4, 4, 3),                // 9: %g4 += %g3
		isa.EncodeBranch(isa.CondA, -5),                     // 10: ba loop (word 5)
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt), // 11
	}
	for _, s := range core.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			_, _, err := runWords(s, 4, words, 100_000)
			var gf *fault.GuestFault
			if !errors.As(err, &gf) || gf.Kind != fault.IllegalInstruction || gf.PC != patchAddr ||
				!strings.Contains(err.Error(), "unknown software trap 77") {
				t.Fatalf("got %v, want the patched trap at %#x to fault", err, patchAddr)
			}
		})
	}
}

// TestUnsupportedOp3Faults starts execution on a word with an unknown
// op3, which must fault as an illegal instruction.
func TestUnsupportedOp3Faults(t *testing.T) {
	words := []uint32{
		isa.EncodeArith(0x2b, 1, 1, 1), // unknown arith op3 faults on execution
	}
	_, _, err := runWords(core.SchemeSP, 4, words, 100)
	if err == nil || !strings.Contains(err.Error(), "unsupported op3") {
		t.Fatalf("expected an illegal-instruction fault, got %v", err)
	}
}

// TestFastPathRandomPrograms runs randomized instruction streams on a
// real scheme's small window file and on the infinite-window Reference
// oracle, which never spills. Window traps must be invisible to the
// program: both runs must end with the same error, step count, PC,
// console output, visible registers, save and restore counts, and
// memory outside the save area. Programs may fault (division by zero,
// restore past the outermost frame); every fault must be a typed guest
// fault. The name dates from the interpreter's removed
// second path; the subtests keep their IDs.
func TestFastPathRandomPrograms(t *testing.T) {
	const programs = 120
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		words := randomProgram(rng)
		s := core.Schemes[int(seed)%len(core.Schemes)]
		windows := []int{3, 4, 6, 8}[rng.Intn(4)]
		t.Run(fmt.Sprintf("seed%d/%v/w%d", seed, s, windows), func(t *testing.T) {
			m, cpu, err := runWords(s, windows, words, 20_000)
			ref, refCPU, refErr := runWords(core.SchemeReference, windows, words, 20_000)
			compareWithOracle(t, m, cpu, err, ref, refCPU, refErr)
		})
	}
}

// saveAreaLo and saveAreaHi bound the window save area of a machine's
// first thread under the default core layout (64 KiB below 0xfff0000).
// A real scheme spills windows there and the oracle never does, so the
// memory comparison leaves the range out.
const saveAreaLo, saveAreaHi = 0xfff0000 - 1<<16, 0xfff0000

// compareWithOracle fails the test on any program-visible difference
// between a run on a real scheme and the same program on the oracle.
// Cycle totals, trap counts and CWP differ by design and are not
// compared.
func compareWithOracle(t *testing.T, m *isa.Machine, cpu *isa.CPU, err error, ref *isa.Machine, refCPU *isa.CPU, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("error divergence:\n scheme: %v\n oracle: %v", err, refErr)
	}
	if err != nil {
		var gf, rf *fault.GuestFault
		if !errors.As(err, &gf) || !errors.As(refErr, &rf) {
			t.Fatalf("untyped error:\n scheme: %v\n oracle: %v", err, refErr)
		}
		if gf.Kind != rf.Kind || gf.PC != rf.PC || gf.Detail != rf.Detail || gf.Thread != rf.Thread {
			t.Fatalf("fault divergence:\n scheme: %v\n oracle: %v", err, refErr)
		}
	}
	if a, b := cpu.Steps, refCPU.Steps; a != b {
		t.Fatalf("steps diverge: scheme %d oracle %d", a, b)
	}
	if a, b := cpu.PC(), refCPU.PC(); a != b {
		t.Fatalf("pc diverges: scheme %#x oracle %#x", a, b)
	}
	if a, b := cpu.Halted(), refCPU.Halted(); a != b {
		t.Fatalf("halted diverges: scheme %v oracle %v", a, b)
	}
	if a, b := cpu.Console.String(), refCPU.Console.String(); a != b {
		t.Fatalf("console diverges:\n scheme %q\n oracle %q", a, b)
	}
	for r := 0; r < 32; r++ {
		if a, b := m.Mgr.Reg(r), ref.Mgr.Reg(r); a != b {
			t.Fatalf("r%d diverges: scheme %#x oracle %#x", r, a, b)
		}
	}
	c, rc := m.Mgr.Counters(), ref.Mgr.Counters()
	if c.Saves != rc.Saves || c.Restores != rc.Restores {
		t.Fatalf("saves/restores diverge: scheme %d/%d oracle %d/%d", c.Saves, c.Restores, rc.Saves, rc.Restores)
	}
	// An untouched page reads as zeros, so compare the union of the
	// pages either run touched.
	pages := map[uint32]bool{}
	for _, p := range append(m.Mem.TouchedPages(), ref.Mem.TouchedPages()...) {
		if p < saveAreaLo || p >= saveAreaHi {
			pages[p] = true
		}
	}
	n := int(mem.PageSize())
	for p := range pages {
		if a, b := m.Mem.LoadBytes(p, n), ref.Mem.LoadBytes(p, n); !bytes.Equal(a, b) {
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("memory diverges at %#x: scheme %#x oracle %#x", p+uint32(i), a[i], b[i])
				}
			}
		}
	}
}

// randomProgram builds a random instruction stream: a preamble
// pointing %g6 at a data area, then a random mix of ALU ops,
// loads/stores, short forward branches, save/restore pairs, multiplies,
// divides and putc traps, then a restore for every save still open and
// a halt. Writes are steered off %g6, so every access stays aligned in
// the data area.
func randomProgram(rng *rand.Rand) []uint32 {
	reg := func() int { return rng.Intn(32) }
	dst := func() int {
		if r := reg(); r != 6 {
			return r
		}
		return 5
	}
	w := []uint32{
		isa.EncodeSethi(6, 0x3000>>10),             // %g6 = data base hi
		isa.EncodeArithImm(isa.Op3Or, 6, 6, 0x300), // %g6 |= lo
	}
	// A fresh window's locals and outs hold whatever its slot last held
	// on a real window file, but zeros on the oracle, so every save is
	// followed by clearing them (all but the %sp the save just set):
	// the program then reads only defined values.
	save := func() {
		w = append(w, isa.EncodeArithImm(isa.Op3Save, 14, 14, -96))
		for r := 8; r < 24; r++ {
			if r != 14 {
				w = append(w, isa.EncodeArithImm(isa.Op3Or, r, 0, 0))
			}
		}
	}
	restore := isa.EncodeArith(isa.Op3Restore, 0, 0, 0)
	save()
	n := 30 + rng.Intn(120)
	depth := 1
	for i := 0; i < n; i++ {
		switch rng.Intn(16) {
		case 0:
			w = append(w, isa.EncodeArithImm(isa.Op3Add, dst(), reg(), int32(rng.Intn(8192)-4096)))
		case 1:
			w = append(w, isa.EncodeArithImm(isa.Op3Sub, dst(), reg(), int32(rng.Intn(8192)-4096)))
		case 2:
			w = append(w, isa.EncodeArith(isa.Op3AddCC, dst(), reg(), reg()))
		case 3:
			w = append(w, isa.EncodeArith(isa.Op3Xor, dst(), reg(), reg()))
		case 4:
			w = append(w, isa.EncodeArithImm(isa.Op3And, dst(), reg(), int32(rng.Intn(4096))))
		case 5:
			w = append(w, isa.EncodeArithImm(isa.Op3Sll, dst(), reg(), int32(rng.Intn(32))))
		case 6:
			w = append(w, isa.EncodeArithImm(isa.Op3Sra, dst(), reg(), int32(rng.Intn(32))))
		case 7:
			w = append(w, isa.EncodeArith(isa.Op3SMul, dst(), reg(), reg()))
		case 8:
			// Divide by a small constant, or, one draw in 32, by %g0:
			// both runs must then fault with division by zero.
			rd, rs1, k := dst(), reg(), reg()
			if k == 0 {
				w = append(w, isa.EncodeArith(isa.Op3SDiv, rd, rs1, 0))
			} else {
				w = append(w, isa.EncodeArithImm(isa.Op3SDiv, rd, rs1, int32(k)))
			}
		case 9:
			w = append(w, isa.EncodeMemImm(isa.Op3St, reg(), 6, int32(rng.Intn(256)*4)))
		case 10:
			w = append(w, isa.EncodeMemImm(isa.Op3Ld, dst(), 6, int32(rng.Intn(256)*4)))
		case 11:
			w = append(w, isa.EncodeMemImm(isa.Op3Stb, reg(), 6, int32(rng.Intn(1024))))
		case 12:
			w = append(w, isa.EncodeMemImm(isa.Op3Ldsb, dst(), 6, int32(rng.Intn(1024))))
		case 13:
			// Short forward branch over live code on a random condition.
			w = append(w, isa.EncodeBranch(rng.Intn(16), int32(1+rng.Intn(4))))
		case 14:
			save()
			depth++
		case 15:
			if depth > 1 && rng.Intn(2) == 0 {
				w = append(w, restore)
				depth--
			} else {
				w = append(w, isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapPutc))
			}
		}
	}
	// Unwinding fills back every window an overflow spilled. Branches
	// that skip saves or restores leave the unwinding short or long; a
	// restore past the outermost frame must fault alike in both runs.
	for ; depth > 1; depth-- {
		w = append(w, restore)
	}
	w = append(w, isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt))
	return w
}

// TestMultithreadedMailbox runs a two-thread producer/consumer program
// under the scheduler: the threads share one window file and one
// memory, and every yield is a context switch that moves the current
// window. The consumer sums the producer's 1..10 into a mailbox.
func TestMultithreadedMailbox(t *testing.T) {
	producerSrc := `
start:
	set 0x4000, %l0      ! mailbox
	clr %l1
loop:
	inc %l1
	st %l1, [%l0]
	mov 'p', %o0
	ta 2
	yield
	cmp %l1, 10
	bl loop
	ta 0
`
	consumerSrc := `
start:
	set 0x4000, %l0
	clr %l2
loop:
	ld [%l0], %l1
	add %l2, %l1, %l2
	st %l2, [%l0 + 4]
	mov 'c', %o0
	ta 2
	yield
	cmp %l1, 10
	bl loop
	ta 0
`
	for _, s := range core.Schemes {
		for _, windows := range []int{4, 16} {
			t.Run(fmt.Sprintf("%v/w%d", s, windows), func(t *testing.T) {
				producer := asm.MustAssemble(producerSrc, 0x1000)
				consumer := asm.MustAssemble(consumerSrc, 0x2000)
				m := isa.NewMachine(s, windows)
				producer.Load(m.Mem)
				consumer.Load(m.Mem)
				var console []byte
				k := sched.NewKernel(m.Mgr, sched.FIFO)
				k.Spawn("producer", isa.ThreadBody(m.Mgr, m.Mem, producer.Entry("start"), 0x700000, 1_000_000, &console))
				k.Spawn("consumer", isa.ThreadBody(m.Mgr, m.Mem, consumer.Entry("start"), 0x780000, 1_000_000, &console))
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if got := m.Mem.Load32(0x4004); got != 55 {
					t.Errorf("mailbox sum %d, want 55", got)
				}
				if got, want := string(console), strings.Repeat("pc", 10); got != want {
					t.Errorf("console %q, want %q", got, want)
				}
			})
		}
	}
}
