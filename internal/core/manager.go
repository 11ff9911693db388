package core

import (
	"fmt"

	"cyclicwin/internal/cycles"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/regwin"
	"cyclicwin/internal/stats"
)

// Scheme identifies a window-management scheme (Section 4.5).
type Scheme int

const (
	// SchemeNS is the conventional non-sharing scheme.
	SchemeNS Scheme = iota
	// SchemeSNP shares windows with one global reserved window.
	SchemeSNP
	// SchemeSP shares windows with a private reserved window per thread.
	SchemeSP
	// SchemeReference is the infinite-window oracle used in tests.
	SchemeReference
)

// String returns the paper's abbreviation for the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeNS:
		return "NS"
	case SchemeSNP:
		return "SNP"
	case SchemeSP:
		return "SP"
	case SchemeReference:
		return "REF"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Schemes lists the three evaluated schemes in the paper's order.
var Schemes = []Scheme{SchemeNS, SchemeSNP, SchemeSP}

// Manager is a window-management scheme driving one register file shared
// by many threads. Save, Restore, Reg and SetReg act on the running
// thread; Switch suspends the running thread (if any) and schedules
// another.
type Manager interface {
	// Scheme identifies the management algorithm.
	Scheme() Scheme

	// NewThread registers a thread with the given id and name. The
	// thread owns no windows until it is first switched to.
	NewThread(id int, name string) *Thread

	// Running returns the currently scheduled thread, or nil.
	Running() *Thread

	// Switch performs a context switch to t, charging the scheme's
	// switch cost. Switching to the running thread is a no-op.
	Switch(t *Thread)

	// SwitchFlush is the second switch type of Section 4.4: it flushes
	// all windows of the outgoing thread before switching, for threads
	// expected to sleep for a long time.
	SwitchFlush(t *Thread)

	// Save executes a save instruction (procedure entry) for the
	// running thread, handling a window-overflow trap if one occurs.
	Save()

	// Restore executes a restore instruction (procedure return) for the
	// running thread, handling a window-underflow trap if one occurs.
	// Restoring past the outermost frame panics; threads must Exit
	// instead of returning from their first frame.
	Restore()

	// Exit terminates the running thread, releasing all its windows;
	// afterwards no thread is running.
	Exit()

	// Resident reports whether any of t's windows are in the register
	// file (the working-set scheduling predicate of Section 4.6).
	Resident(t *Thread) bool

	// Reg and SetReg access register r (0..31) of the running thread's
	// current window.
	Reg(r int) uint32
	SetReg(r int, v uint32)

	// Counters exposes the machine-wide event counts, and Cycles the
	// simulated cycle counter.
	Counters() *stats.Counters
	Cycles() *cycles.Counter
}

// Config carries the machine parameters shared by all schemes.
type Config struct {
	// Windows is the number of register windows (4..32 in the paper's
	// evaluation).
	Windows int
	// Memory is the simulated memory holding window save areas; a fresh
	// one is created when nil.
	Memory *mem.Memory
	// Counter is the cycle counter; a fresh one is created when nil.
	Counter *cycles.Counter
	// Stacks, when non-nil, is a shared save-area allocator. Multi-core
	// configurations give every core's machine the same allocator (and
	// the same Memory) so threads created on different cores get
	// disjoint save areas; a machine with a shared allocator also
	// tolerates threads whose windows are resident on a sibling core.
	Stacks *mem.StackAllocator
	// SearchAlloc enables the alternative window allocation of Section
	// 4.2 in the SNP scheme: before allocating at the simple position
	// (just above the suspended thread), search for a free window with
	// a free window above it, avoiding the spill and the ping-pong
	// pathology at the cost of the search. Ignored by other schemes.
	SearchAlloc bool
	// Activity, when non-nil, records per-burst window activity (the
	// Section 5 quantities: window activity per thread, total window
	// activity, concurrency).
	Activity *stats.ActivityRecorder
	// HWAssist models the paper's Conclusion 3: a multi-threaded
	// architecture implementing the same algorithms in hardware, where
	// the software bookkeeping of switches and traps collapses to a few
	// cycles while window transfers keep their memory-traffic cost.
	HWAssist bool
	// TrapTransfer is the number of windows an overflow trap transfers.
	// Tamir and Sequin showed one window is best in most cases, which
	// the paper's handlers adopt; other values let that result be
	// re-examined on this machine. 0 means 1. Underflow handlers always
	// transfer exactly one window: the proposed in-place handler
	// restores the caller into the current slot (deeper frames have no
	// slot to go to), and the conventional NS handler follows Figure 4.
	TrapTransfer int
}

// trapTransfer normalises the configured transfer depth.
func (c Config) trapTransfer() int {
	k := c.TrapTransfer
	if k < 1 {
		k = 1
	}
	// At most n-2 windows can move per trap: the current window and the
	// boundary window must remain.
	max := c.Windows - 2
	if max < 1 {
		max = 1
	}
	if k > max {
		k = max
	}
	return k
}

// stacks returns the configured save-area allocator, or a private one
// that lays save areas out downward from high memory, 64 KiB (1,024
// frames) per thread, far from guest data.
func (c Config) stacks() *mem.StackAllocator {
	if c.Stacks != nil {
		return c.Stacks
	}
	return mem.NewStackAllocator(0xfff0000, 1<<16)
}

// New constructs a manager for the given scheme.
func New(s Scheme, cfg Config) Manager {
	switch s {
	case SchemeNS:
		return NewNS(cfg)
	case SchemeSNP:
		return NewSNP(cfg)
	case SchemeSP:
		return NewSP(cfg)
	case SchemeReference:
		return NewReference(cfg)
	}
	panic(fmt.Sprintf("core: unknown scheme %d", int(s)))
}

// slot describes who owns one window of the register file.
type slot struct {
	owner *Thread // nil when free or globally reserved
	prw   bool    // the slot is owner's private reserved window (SP)
}

// machine is the state shared by the NS, SNP and SP managers: the
// register file, the ownership table mirroring it, the save-area memory
// and the counters.
type machine struct {
	file     *regwin.File
	mem      *mem.Memory
	cyc      *cycles.Counter
	slots    []slot
	running  *Thread
	stacks   *mem.StackAllocator
	nextID   int
	cnt      stats.Counters
	transfer int // windows moved per overflow trap (Config.TrapTransfer)
	activity *stats.ActivityRecorder
	hw       bool // hardware-assisted cost model (Config.HWAssist)
	multi    bool // part of a multi-core group (Config.Stacks was shared)

	// threads lists every thread ever registered, so the invariant
	// checker can audit windowless threads too (the ownership table only
	// reaches threads that currently own slots).
	threads []*Thread

	// selfVerify is the scheme's Verify method, wired by the scheme
	// constructor so the shared event scope can run the invariant set
	// after every outermost operation when SetInvariantChecks is on.
	selfVerify func() error

	// onEvent, when non-nil, receives one Event per window-management
	// operation (events.go). evNest suppresses emission from operations
	// that run inside another one (SwitchFlush runs Switch).
	onEvent EventHook
	evNest  int
}

func newMachine(cfg Config) machine {
	m := cfg.Memory
	if m == nil {
		m = mem.New()
	}
	c := cfg.Counter
	if c == nil {
		c = new(cycles.Counter)
	}
	return machine{
		file:     regwin.NewFile(cfg.Windows),
		mem:      m,
		cyc:      c,
		stacks:   cfg.stacks(),
		slots:    make([]slot, cfg.Windows),
		transfer: cfg.trapTransfer(),
		activity: cfg.Activity,
		hw:       cfg.HWAssist,
		multi:    cfg.Stacks != nil,
	}
}

// switchBase returns the scheme's software switch overhead, or the
// hardware-assisted one. extra carries cost that is real data movement
// even in hardware (the SNP out-register swap).
func (m *machine) switchBase(soft, extra uint64) uint64 {
	if m.hw {
		return cycles.HWSwitchBase + extra
	}
	return soft
}

// trapOverhead returns the bookkeeping cost of one window trap (entry,
// exit, WIM update), excluding transfers.
func (m *machine) trapOverhead() uint64 {
	if m.hw {
		return cycles.HWTrapEnterExit + cycles.HWWIMUpdate
	}
	return cycles.TrapEnterExit + cycles.WIMUpdate
}

func (m *machine) Running() *Thread          { return m.running }
func (m *machine) Counters() *stats.Counters { return &m.cnt }
func (m *machine) Cycles() *cycles.Counter   { return m.cyc }

// File exposes the underlying register file (used by the ISA layer and
// by the invariant checker).
func (m *machine) File() *regwin.File { return m.file }

func (m *machine) Reg(r int) uint32 {
	m.mustRun("Reg")
	return m.file.Reg(r)
}

func (m *machine) SetReg(r int, v uint32) {
	m.mustRun("SetReg")
	m.file.SetReg(r, v)
}

func (m *machine) newThread(id int, name string) *Thread {
	t := &Thread{ID: id, Name: name, saveBase: m.stacks.Alloc(), frames: m.stacks.Size() / frameBytes}
	t.resetWindows()
	t.initOuts()
	m.threads = append(m.threads, t)
	return t
}

func (m *machine) mustRun(op string) {
	if m.running == nil {
		panic("core: " + op + " with no running thread")
	}
}

// countSave records an executed save instruction and charges its cycle.
func (m *machine) countSave(t *Thread) {
	m.cnt.Saves++
	t.Stats.Saves++
	t.noteDepth(t.depth + 1)
	m.cyc.Add(cycles.Instr)
}

// countRestore records an executed restore instruction and charges its
// cycle.
func (m *machine) countRestore(t *Thread) {
	m.cnt.Restores++
	t.Stats.Restores++
	t.noteDepth(t.depth - 1)
	m.cyc.Add(cycles.Instr)
}

// noteDispatch starts a new activity burst for the scheduled thread.
func (m *machine) noteDispatch(t *Thread) {
	t.burstMin, t.burstMax = t.depth, t.depth
}

// noteSuspend closes the suspending thread's activity burst.
func (m *machine) noteSuspend(t *Thread) {
	if m.activity != nil {
		m.activity.Record(stats.Burst{Thread: t.ID, Min: t.burstMin, Max: t.burstMax})
	}
}

// free releases slot w in the ownership table. It deliberately does not
// scrub the registers: the in registers of a slot double as the out
// registers of the slot below, which may be live (most importantly in
// freeDeadAbove, where the slot above the suspended thread's stack-top
// holds its live outs). Callers scrub explicitly where it is safe.
func (m *machine) free(w int) {
	m.slots[w] = slot{}
}

// owned marks slot w as a normal window of t.
func (m *machine) owned(w int, t *Thread) {
	m.slots[w] = slot{owner: t}
}

// region applies fn to every slot from a up to b inclusive, walking
// upward (through Above). a and b must both be valid slots of one
// contiguous region.
func (m *machine) region(a, b int, fn func(w int)) {
	for w := a; ; w = m.file.Above(w) {
		fn(w)
		if w == b {
			return
		}
	}
}

// residentCount reports how many live windows of t are resident
// (between its bottom and its current window, inclusive).
func (m *machine) residentCount(t *Thread) int {
	if !t.HasWindows() {
		return 0
	}
	return m.file.Distance(t.bottom, t.cwp) + 1
}

// freeDeadAbove releases the thread's dead windows (slots above its
// current window up to its high-water slot) and resets high to the
// current window. This is pure bookkeeping — the hardware analogue is
// that those windows simply hold no live data — so no cycles are
// charged.
func (m *machine) freeDeadAbove(t *Thread) {
	if !t.HasWindows() || t.high == t.cwp {
		return
	}
	m.region(m.file.Above(t.cwp), t.high, func(w int) { m.free(w) })
	t.high = t.cwp
}

// syncCWP records the register file's CWP into the suspending thread.
func (m *machine) syncCWP(t *Thread) {
	if t.HasWindows() {
		t.cwp = m.file.CWP()
	}
}

// saveOuts copies the running thread's stack-top out registers into its
// TCB; restoreOuts puts them back into the register file at the slot
// above the thread's current window.
func (m *machine) saveOuts(t *Thread) {
	copy(t.outs[:], m.file.Outs(t.cwp))
	t.outsSave = true
}

func (m *machine) restoreOuts(t *Thread) {
	if !t.outsSave {
		return
	}
	copy(m.file.Outs(t.cwp), t.outs[:])
	t.outsSave = false
}

// exitCommon releases every slot owned by the running thread and the
// running designation itself.
func (m *machine) exitCommon(clearPRW bool) *Thread {
	m.mustRun("Exit")
	t := m.running
	snap := m.evBegin()
	defer m.evEnd(EvExit, t.ID, snap)
	m.syncCWP(t)
	m.noteSuspend(t)
	if t.HasWindows() {
		m.region(t.bottom, t.high, func(w int) {
			m.free(w)
			m.file.ClearWindow(w)
		})
		if clearPRW && t.prw != noSlot {
			m.file.SetInvalid(t.prw, false)
			m.free(t.prw)
			m.file.ClearWindow(t.prw)
		}
	}
	t.resetWindows()
	t.saved = 0
	t.depth = 0
	m.running = nil
	return t
}
