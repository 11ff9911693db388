package isa_test

// Interpreter microbenchmarks comparing the two paths on the same
// programs: fast (predecoded instruction cache, devirtualized window
// access, batched cycle accounting) and slow (the reference Step path —
// the original interpreter). fast/slow is the speedup recorded in
// BENCH_interp.json.

import (
	"testing"

	"cyclicwin/internal/asm"
	"cyclicwin/internal/core"
	"cyclicwin/internal/isa"
)

// stepLoopSrc is a tight arithmetic loop: the minimal fetch/decode/
// execute round trip, dominated by interpreter overhead.
const stepLoopSrc = `
start:
	set 20000, %l0
loop:
	add %l1, 3, %l1
	xor %l2, %l1, %l2
	subcc %l0, 1, %l0
	bne loop
	ta 0
`

// spellSrc is a spell-checker-like kernel at the ISA level: for each
// "word" it calls a hashing procedure through a real register window
// (save/restore, taking overflow/underflow traps on small files),
// hashes eight characters with loads and multiplies, probes a dictionary
// table, and emits a console byte on a miss — the same instruction mix
// the paper's workload stresses: calls, traps, memory traffic, branches.
const spellSrc = `
start:
	set 400, %l0         ! words to check
	set 0x5000, %l1      ! text cursor
	set 0x6000, %l2      ! dictionary table (1024 words)
word:
	mov %l1, %o0         ! arg: word address
	call hash
	and %o0, 1023, %l3   ! bucket index (words)
	sll %l3, 2, %l3
	set 0x6000, %l4
	add %l4, %l3, %l4
	ld [%l4], %l5        ! probe dictionary
	cmp %l5, %o0
	be hit
	mov 'x', %o0         ! miss: report
	ta 2
	st %l5, [%l4]        ! and cache the probe
hit:
	add %l1, 8, %l1      ! next word
	subcc %l0, 1, %l0
	bne word
	ta 0

hash:                        ! hash 8 bytes at %i0 into %i0
	save %sp, -96, %sp
	clr %l0              ! h = 0
	mov 8, %l1
	mov %i0, %l2
hloop:
	ldub [%l2], %l3
	smul %l0, 31, %l0
	xor %l0, %l3, %l0
	add %l2, 1, %l2
	subcc %l1, 1, %l1
	bne hloop
	mov %l0, %i0
	restore
	ret
`

// benchProgram runs src once per iteration on a fresh machine with the
// chosen interpreter path; allocation cost is identical on both sides,
// so the fast/slow ratio isolates the interpreter core. The
// runtime invariant audit — armed by TestMain for every test in this
// binary, but off in production runs — is disabled for the measurement:
// it re-verifies the whole window file inside every save and restore,
// which would swamp the call-heavy workloads with debug-only cost.
func benchProgram(b *testing.B, src string, windows int, fast bool) {
	audit := core.InvariantChecksEnabled()
	core.SetInvariantChecks(false)
	defer core.SetInvariantChecks(audit)
	p := asm.MustAssemble(src, 0x1000)
	var steps uint64
	for i := 0; i < b.N; i++ {
		m := isa.NewMachine(core.SchemeSP, windows)
		m.SlowPath = !fast
		p.Load(m.Mem)
		// Seed the text area the spell kernel hashes.
		for a := uint32(0x5000); a < 0x5000+400*8; a++ {
			m.Mem.Store8(a, byte(a*7+3))
		}
		cpu, err := m.RunProgram(p.Entry("start"), 0)
		if err != nil {
			b.Fatal(err)
		}
		steps = cpu.Steps
	}
	b.ReportMetric(float64(steps), "instrs/op")
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkCPUStep measures the raw fetch/decode/execute round trip on
// a tight arithmetic loop.
func BenchmarkCPUStep(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchProgram(b, stepLoopSrc, 8, true) })
	b.Run("slow", func(b *testing.B) { benchProgram(b, stepLoopSrc, 8, false) })
}

// BenchmarkSpellWorkload measures the spell-checker-like kernel — the
// headline before/after number for the fast interpreter core.
func BenchmarkSpellWorkload(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchProgram(b, spellSrc, 8, true) })
	b.Run("slow", func(b *testing.B) { benchProgram(b, spellSrc, 8, false) })
}

// storeFarSrc hammers stores at a data page far from the cached text;
// the icache store watcher must reject every one of them on its bounds
// compare. Before invalidate became slot-granular it rescanned cached
// pages on such stores, so this is the regression guard for predecode
// over-invalidation.
const storeFarSrc = `
start:
	set 20000, %l0
	set 0x8000, %l1
loop:
	st %l2, [%l1]
	add %l2, 1, %l2
	subcc %l0, 1, %l0
	bne loop
	ta 0
`

// storeTextPageSrc stores into the same page as the loop itself, but at
// a word the loop never executes: slot-granular invalidation clears one
// decode slot per store, while a page-granular scheme would force the
// whole loop to re-decode every iteration.
const storeTextPageSrc = `
start:
	set 20000, %l0
	set 0x1800, %l1
loop:
	st %l2, [%l1]
	add %l2, 1, %l2
	subcc %l0, 1, %l0
	bne loop
	ta 0
`

// BenchmarkPredecodeInvalidation measures the store watcher on the fast
// (predecode) path: "reject" is the common case of stores nowhere near
// text, "textpage" the worst case of stores landing in a cached text
// page without touching the running code.
func BenchmarkPredecodeInvalidation(b *testing.B) {
	b.Run("reject", func(b *testing.B) { benchProgram(b, storeFarSrc, 8, true) })
	b.Run("textpage", func(b *testing.B) { benchProgram(b, storeTextPageSrc, 8, true) })
}

// BenchmarkSpellWorkloadSmallFile repeats the spell kernel on a 4-window
// file, where every hash call overflows and every return underflows, so
// the manager slow path (window traps) stays in the profile.
func BenchmarkSpellWorkloadSmallFile(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchProgram(b, spellSrc, 4, true) })
	b.Run("slow", func(b *testing.B) { benchProgram(b, spellSrc, 4, false) })
}
