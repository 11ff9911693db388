package isa_test

// Differential tests pinning the fast interpreter path (predecoded
// instruction cache, devirtualized window access, batched cycle
// accounting) to the reference Step path. Both paths execute the same
// programs on identically configured machines and must produce
// identical registers (the whole window file), memory, console output,
// cycle totals, event counters and errors — including on programs that
// write into their own text segment, which exercises predecode
// invalidation.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cyclicwin/internal/asm"
	"cyclicwin/internal/core"
	"cyclicwin/internal/isa"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/regwin"
	"cyclicwin/internal/sched"
)

const diffOrigin = 0x1000

// diffMachine is one half of a differential run.
type diffMachine struct {
	mgr core.Manager
	mem *mem.Memory
	cpu *isa.CPU
}

func newDiffMachine(s core.Scheme, windows int, words []uint32, fast bool) *diffMachine {
	m := isa.NewMachine(s, windows)
	for i, w := range words {
		m.Mem.Store32(diffOrigin+uint32(4*i), w)
	}
	th := m.Mgr.NewThread(0, "diff")
	m.Mgr.Switch(th)
	m.Mgr.SetReg(regwin.RegSP, 0x0800000)
	cpu := isa.NewCPU(m.Mgr, m.Mem)
	cpu.SetFastPath(fast)
	cpu.SetPC(diffOrigin)
	return &diffMachine{mgr: m.Mgr, mem: m.Mem, cpu: cpu}
}

// drive runs until halt or error, resuming across yields; the step
// limit bounds runaway programs (both paths then fail identically).
func (d *diffMachine) drive(limit uint64) string {
	for i := 0; ; i++ {
		y, err := d.cpu.Run(limit)
		if err != nil {
			return err.Error()
		}
		if !y {
			return ""
		}
		if i > 1000 {
			return "diff: yield livelock"
		}
	}
}

func (d *diffMachine) file() *regwin.File {
	f, ok := d.mgr.(interface{ File() *regwin.File })
	if !ok {
		return nil
	}
	return f.File()
}

// compareState fails the test on any observable divergence between the
// slow and fast machines.
func compareState(t *testing.T, slow, fast *diffMachine, errSlow, errFast string) {
	t.Helper()
	if errSlow != errFast {
		t.Fatalf("error divergence:\n slow: %q\n fast: %q", errSlow, errFast)
	}
	if a, b := slow.cpu.Steps, fast.cpu.Steps; a != b {
		t.Fatalf("steps diverge: slow %d fast %d", a, b)
	}
	if a, b := slow.cpu.PC(), fast.cpu.PC(); a != b {
		t.Fatalf("pc diverges: slow %#x fast %#x", a, b)
	}
	if a, b := slow.cpu.Halted(), fast.cpu.Halted(); a != b {
		t.Fatalf("halted diverges: slow %v fast %v", a, b)
	}
	if a, b := slow.cpu.Console.String(), fast.cpu.Console.String(); a != b {
		t.Fatalf("console diverges:\n slow %q\n fast %q", a, b)
	}
	if a, b := slow.mgr.Cycles().Total(), fast.mgr.Cycles().Total(); a != b {
		t.Fatalf("cycle totals diverge: slow %d fast %d", a, b)
	}
	if !reflect.DeepEqual(slow.mgr.Counters(), fast.mgr.Counters()) {
		t.Fatalf("counters diverge:\n slow %+v\n fast %+v", slow.mgr.Counters(), fast.mgr.Counters())
	}
	sf, ff := slow.file(), fast.file()
	if sf != nil && ff != nil {
		if sf.CWP() != ff.CWP() || sf.WIM() != ff.WIM() {
			t.Fatalf("window state diverges: slow cwp=%d wim=%#x fast cwp=%d wim=%#x",
				sf.CWP(), sf.WIM(), ff.CWP(), ff.WIM())
		}
		for w := 0; w < sf.NWindows(); w++ {
			for r := 0; r < 32; r++ {
				if a, b := sf.RegW(w, r), ff.RegW(w, r); a != b {
					t.Fatalf("reg w%d r%d diverges: slow %#x fast %#x", w, r, a, b)
				}
			}
		}
	}
	// Memory: both sides must have written the same bytes. Compare the
	// union of touched pages (an untouched page reads as zeros).
	pages := map[uint32]bool{}
	for _, p := range slow.mem.TouchedPages() {
		pages[p] = true
	}
	for _, p := range fast.mem.TouchedPages() {
		pages[p] = true
	}
	n := int(mem.PageSize())
	for p := range pages {
		a := slow.mem.LoadBytes(p, n)
		b := fast.mem.LoadBytes(p, n)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("memory diverges at %#x: slow %#x fast %#x", p+uint32(i), a[i], b[i])
			}
		}
	}
}

func runDiff(t *testing.T, s core.Scheme, windows int, words []uint32, limit uint64) {
	t.Helper()
	slow := newDiffMachine(s, windows, words, false)
	fast := newDiffMachine(s, windows, words, true)
	errSlow := slow.drive(limit)
	errFast := fast.drive(limit)
	compareState(t, slow, fast, errSlow, errFast)
}

// TestFastPathRecursion exercises deep save/restore chains (overflow
// and underflow traps on small window files) plus multiply, divide,
// console output and yields.
func TestFastPathRecursion(t *testing.T) {
	// fact(n): recursive factorial through real windows; prints the
	// low byte of the result, yields, then recomputes iteratively and
	// halts with both results in globals.
	fact := func() []uint32 {
		var w []uint32
		// %o0 = 9; call fact; %g5 = result; ta 2 (putc); ta 1 (yield);
		// iterative product loop with smul; sdiv sanity; ta 0.
		w = append(w,
			isa.EncodeArithImm(isa.Op3Or, 8, 0, 9), // %o0 = 9
			isa.EncodeCall(7),                      // call fact (at word 8)
			isa.EncodeArithImm(isa.Op3Or, 5, 8, 0), // %g5 = %o0
			isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapPutc),
			isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapYield),
			isa.EncodeArithImm(isa.Op3SDiv, 6, 5, 7), // %g6 = %g5 / 7
			isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt),
			0, // padding (never executed)
		)
		// fact: (word 8)
		w = append(w,
			isa.EncodeArithImm(isa.Op3Save, 14, 14, -96), // save %sp,-96,%sp
			isa.EncodeArithImm(isa.Op3SubCC, 0, 24, 1),   // cmp %i0, 1
			isa.EncodeBranch(isa.CondLE, 5),              // ble base (word 14)
			isa.EncodeArithImm(isa.Op3Sub, 8, 24, 1),     // %o0 = %i0 - 1
			isa.EncodeCall(-3),                           // call fact (word 8)
			isa.EncodeArith(isa.Op3SMul, 24, 8, 24),      // %i0 = %o0 * %i0
			isa.EncodeBranch(isa.CondA, 2),               // ba out (word 16)
			// base: (word 14)
			isa.EncodeArithImm(isa.Op3Or, 24, 0, 1), // %i0 = 1
			0,                                       // padding slot for alignment of the jump target
			// out: (word 16)
			isa.EncodeArith(isa.Op3Restore, 0, 0, 0),
			isa.EncodeArithImm(isa.Op3Jmpl, 0, 15, 8), // ret
		)
		return w
	}()
	for _, s := range core.Schemes {
		for _, windows := range []int{3, 4, 8, 16} {
			t.Run(fmt.Sprintf("%v/w%d", s, windows), func(t *testing.T) {
				runDiff(t, s, windows, fact, 1_000_000)
			})
		}
	}
}

// TestFastPathSelfModifying overwrites an instruction in the already
// executed (and therefore predecoded) text and loops back over it: the
// fast path must invalidate the cached decode and execute the new word,
// exactly like the always-decoding slow path.
func TestFastPathSelfModifying(t *testing.T) {
	patch := isa.EncodeArithImm(isa.Op3Or, 2, 0, 42) // or %g0, 42, %g2
	patchAddr := uint32(diffOrigin + 6*4)
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
			slow := newDiffMachine(s, 8, words, false)
			fast := newDiffMachine(s, 8, words, true)
			errSlow := slow.drive(10_000)
			errFast := fast.drive(10_000)
			compareState(t, slow, fast, errSlow, errFast)
			// And the patched instruction must actually have run on the
			// second pass: %g2 becomes 42 only via the patched word.
			if got := fast.mgr.Reg(2); got != 42 {
				t.Fatalf("patched instruction did not execute on the fast path: %%g2 = %d", got)
			}
			if got := fast.mgr.Reg(3); got != 1 {
				t.Fatalf("original instruction never executed: %%g3 = %d", got)
			}
		})
	}
}

// countLoop is a 20-pass loop: add/xor/subcc/bne then halt.
func countLoop() []uint32 {
	return []uint32{
		isa.EncodeArithImm(isa.Op3Or, 7, 0, 20),             // 0: %g7 = 20
		isa.EncodeArithImm(isa.Op3Add, 1, 1, 3),             // 1: %g1 += 3
		isa.EncodeArith(isa.Op3Xor, 2, 2, 1),                // 2: %g2 ^= %g1
		isa.EncodeArithImm(isa.Op3SubCC, 7, 7, 1),           // 3: %g7--
		isa.EncodeBranch(isa.CondNE, -3),                    // 4: bne word 1
		isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt), // 5
	}
}

// TestFastPathStepLimitParity lands the step limit on every offset of
// a loop body: the StepLimit fault must carry the exact PC and cycle
// count of the reference path, the fast path's batched cycles
// included.
func TestFastPathStepLimitParity(t *testing.T) {
	words := countLoop()
	for limit := uint64(41); limit <= 45; limit++ {
		slow := newDiffMachine(core.SchemeSP, 8, words, false)
		fast := newDiffMachine(core.SchemeSP, 8, words, true)
		errSlow := slow.drive(limit)
		errFast := fast.drive(limit)
		if errSlow == "" || errSlow != errFast {
			t.Fatalf("limit %d: fault divergence:\n slow %q\n fast %q", limit, errSlow, errFast)
		}
		compareState(t, slow, fast, errSlow, errFast)
	}
}

// TestFastPathPatchedWordFaults has a store on a loop's last pass turn
// the very next word into an unknown software trap: the patched word
// must raise IllegalInstruction with the same rendered PC, CWP and
// cycle count as the reference path (the GuestFault text embeds all
// three).
func TestFastPathPatchedWordFaults(t *testing.T) {
	badTrap := isa.EncodeArithImm(isa.Op3Ticc, 0, 0, 77)
	patchAddr := uint32(diffOrigin + 8*4)
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
		t.Run(fmt.Sprintf("%v", s), func(t *testing.T) {
			slow := newDiffMachine(s, 4, words, false)
			fast := newDiffMachine(s, 4, words, true)
			errSlow := slow.drive(100_000)
			errFast := fast.drive(100_000)
			compareState(t, slow, fast, errSlow, errFast)
			if !strings.Contains(errFast, "unknown software trap 77") {
				t.Fatalf("expected the patched trap to fault, got %q", errFast)
			}
		})
	}
}

// TestFastPathUnsupportedOp3 starts execution on a word with an
// unknown op3: the program must fault identically to the reference
// path.
func TestFastPathUnsupportedOp3(t *testing.T) {
	words := []uint32{
		isa.EncodeArith(0x2b, 1, 1, 1), // unknown arith op3 faults on execution
	}
	slow := newDiffMachine(core.SchemeSP, 4, words, false)
	fast := newDiffMachine(core.SchemeSP, 4, words, true)
	errSlow := slow.drive(100)
	errFast := fast.drive(100)
	compareState(t, slow, fast, errSlow, errFast)
	if !strings.Contains(errFast, "unsupported op3") {
		t.Fatalf("expected an illegal-instruction fault, got %q", errFast)
	}
}

// TestFastPathRandomPrograms executes hundreds of randomized
// instruction streams on both paths. Programs may fault (misalignment,
// division by zero, restore past the outermost frame, runaway step
// limits) — the two paths must then fail with the same error at the
// same state.
func TestFastPathRandomPrograms(t *testing.T) {
	const programs = 120
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		words := randomProgram(rng)
		s := core.Schemes[int(seed)%len(core.Schemes)]
		windows := []int{3, 4, 6, 8}[rng.Intn(4)]
		t.Run(fmt.Sprintf("seed%d/%v/w%d", seed, s, windows), func(t *testing.T) {
			runDiff(t, s, windows, words, 20_000)
		})
	}
}

// randomProgram builds a random but mostly-well-formed instruction
// stream: a preamble pointing %g6 at a data area, then a random mix of
// ALU ops, loads/stores, short forward branches, save/restore pairs,
// multiplies, divides and putc traps, ending in a halt.
func randomProgram(rng *rand.Rand) []uint32 {
	reg := func() int { return rng.Intn(32) }
	w := []uint32{
		isa.EncodeSethi(6, 0x3000>>10),             // %g6 = data base hi
		isa.EncodeArithImm(isa.Op3Or, 6, 6, 0x300), // %g6 |= lo
		isa.EncodeArithImm(isa.Op3Save, 14, 14, -96),
	}
	n := 30 + rng.Intn(120)
	depth := 1
	for i := 0; i < n; i++ {
		switch rng.Intn(16) {
		case 0:
			w = append(w, isa.EncodeArithImm(isa.Op3Add, reg(), reg(), int32(rng.Intn(8192)-4096)))
		case 1:
			w = append(w, isa.EncodeArithImm(isa.Op3Sub, reg(), reg(), int32(rng.Intn(8192)-4096)))
		case 2:
			w = append(w, isa.EncodeArith(isa.Op3AddCC, reg(), reg(), reg()))
		case 3:
			w = append(w, isa.EncodeArith(isa.Op3Xor, reg(), reg(), reg()))
		case 4:
			w = append(w, isa.EncodeArithImm(isa.Op3And, reg(), reg(), int32(rng.Intn(4096))))
		case 5:
			w = append(w, isa.EncodeArithImm(isa.Op3Sll, reg(), reg(), int32(rng.Intn(32))))
		case 6:
			w = append(w, isa.EncodeArithImm(isa.Op3Sra, reg(), reg(), int32(rng.Intn(32))))
		case 7:
			w = append(w, isa.EncodeArith(isa.Op3SMul, reg(), reg(), reg()))
		case 8:
			// Divide by a register that may be zero: both paths must
			// report the same division-by-zero error if it is.
			w = append(w, isa.EncodeArith(isa.Op3SDiv, reg(), reg(), reg()))
		case 9:
			w = append(w, isa.EncodeMemImm(isa.Op3St, reg(), 6, int32(rng.Intn(256)*4)))
		case 10:
			w = append(w, isa.EncodeMemImm(isa.Op3Ld, reg(), 6, int32(rng.Intn(256)*4)))
		case 11:
			w = append(w, isa.EncodeMemImm(isa.Op3Stb, reg(), 6, int32(rng.Intn(1024))))
		case 12:
			w = append(w, isa.EncodeMemImm(isa.Op3Ldsb, reg(), 6, int32(rng.Intn(1024))))
		case 13:
			// Short forward branch over live code on a random condition.
			w = append(w, isa.EncodeBranch(rng.Intn(16), int32(1+rng.Intn(4))))
		case 14:
			w = append(w, isa.EncodeArithImm(isa.Op3Save, 14, 14, -96))
			depth++
		case 15:
			if depth > 1 && rng.Intn(2) == 0 {
				w = append(w, isa.EncodeArith(isa.Op3Restore, 0, 0, 0))
				depth--
			} else {
				w = append(w, isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapPutc))
			}
		}
	}
	w = append(w, isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt))
	return w
}

// FuzzFastParity feeds arbitrary words through both paths; whatever the
// word does (execute, fault), the two machines must agree.
func FuzzFastParity(f *testing.F) {
	f.Add(uint32(0), uint8(0))
	f.Add(isa.EncodeArithImm(isa.Op3Save, 14, 14, -96), uint8(1))
	f.Add(isa.EncodeArith(isa.Op3Restore, 0, 0, 0), uint8(2))
	f.Add(isa.EncodeArithImm(isa.Op3Ticc, 0, 0, 2), uint8(0))
	f.Add(isa.EncodeMemImm(isa.Op3Ld, 9, 0, 2), uint8(1))
	f.Add(isa.EncodeArith(isa.Op3SDiv, 8, 8, 0), uint8(2))
	f.Add(uint32(0xffffffff), uint8(0))
	f.Fuzz(func(t *testing.T, word uint32, schemeSel uint8) {
		s := core.Schemes[int(schemeSel)%len(core.Schemes)]
		words := []uint32{
			isa.EncodeArithImm(isa.Op3Or, 8, 0, 21),
			word,
			isa.EncodeArithImm(isa.Op3Ticc, 0, 0, isa.TrapHalt),
		}
		slow := newDiffMachine(s, 4, words, false)
		fast := newDiffMachine(s, 4, words, true)
		errSlow := slow.drive(100)
		errFast := fast.drive(100)
		compareState(t, slow, fast, errSlow, errFast)
	})
}

// TestFastPathMultithreaded runs a two-thread producer/consumer program
// under the scheduler on both interpreter paths: the threads share one
// window file and one memory, so every context switch moves the current
// window the fast path reads through.
func TestFastPathMultithreaded(t *testing.T) {
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
	run := func(s core.Scheme, windows int, fast bool) (*isa.Machine, []byte) {
		producer := asm.MustAssemble(producerSrc, 0x1000)
		consumer := asm.MustAssemble(consumerSrc, 0x2000)
		m := isa.NewMachine(s, windows)
		producer.Load(m.Mem)
		consumer.Load(m.Mem)
		body := isa.ThreadBody
		if !fast {
			body = isa.ThreadBodySlow
		}
		var console []byte
		k := sched.NewKernel(m.Mgr, sched.FIFO)
		k.Spawn("producer", body(m.Mgr, m.Mem, producer.Entry("start"), 0x700000, 1_000_000, &console))
		k.Spawn("consumer", body(m.Mgr, m.Mem, consumer.Entry("start"), 0x780000, 1_000_000, &console))
		k.Run()
		return m, console
	}
	for _, s := range core.Schemes {
		for _, windows := range []int{4, 16} {
			t.Run(fmt.Sprintf("%v/w%d", s, windows), func(t *testing.T) {
				slowM, slowCon := run(s, windows, false)
				fastM, fastCon := run(s, windows, true)
				if !reflect.DeepEqual(slowCon, fastCon) {
					t.Fatalf("console diverges:\n slow %q\n fast %q", slowCon, fastCon)
				}
				if a, b := slowM.Mgr.Cycles().Total(), fastM.Mgr.Cycles().Total(); a != b {
					t.Fatalf("cycle totals diverge: slow %d fast %d", a, b)
				}
				if !reflect.DeepEqual(slowM.Mgr.Counters(), fastM.Mgr.Counters()) {
					t.Fatalf("counters diverge:\n slow %+v\n fast %+v",
						slowM.Mgr.Counters(), fastM.Mgr.Counters())
				}
				if a, b := slowM.Mem.Load32(0x4004), fastM.Mem.Load32(0x4004); a != b || a != 55 {
					t.Fatalf("mailbox sum diverges: slow %d fast %d (want 55)", a, b)
				}
			})
		}
	}
}
