package core

import (
	"fmt"
	"sort"
	"strings"

	"cyclicwin/internal/regwin"
)

// ThreadWindows is one thread's resident footprint in a Snapshot.
type ThreadWindows struct {
	ID int
	// Slots lists the owned window slots from stack-bottom to high
	// (dead windows included); nil when the thread owns none.
	Slots []int
	// PRW is the thread's private reserved window slot, -1 outside SP or
	// when the thread holds none.
	PRW int
	// CWP is the thread's current window slot (-1 when windowless).
	CWP int
	// Depth is the call depth; Saved the frames spilled to memory.
	Depth int
	Saved int
}

// Snapshot is the full architectural state of a scheme at one instant:
// the file-level CWP and WIM, the reserved window, and every registered
// thread's resident-window set. The differential checker compares and
// reports these; they are cheap to take (no register contents — those
// are read through the File directly).
type Snapshot struct {
	Scheme   Scheme
	CWP      int
	WIM      regwin.Mask
	Reserved int // global reserved slot (NS/SNP), -1 under SP
	Running  int // running thread id, -1 when none
	Threads  []ThreadWindows
}

// String renders the snapshot compactly for divergence reports.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v cwp=%d wim=%v reserved=%d running=%d", s.Scheme, s.CWP, s.WIM, s.Reserved, s.Running)
	for _, t := range s.Threads {
		fmt.Fprintf(&b, " t%d{slots=%v prw=%d cwp=%d depth=%d saved=%d}",
			t.ID, t.Slots, t.PRW, t.CWP, t.Depth, t.Saved)
	}
	return b.String()
}

// Snapshotter is implemented by the three real schemes; the Reference
// oracle has no window file to snapshot.
type Snapshotter interface{ Snapshot() Snapshot }

// Snapshot reports the manager's architectural state.
func (m *machine) Snapshot() Snapshot {
	snap := Snapshot{
		Scheme:   m.scheme,
		CWP:      m.file.CWP(),
		WIM:      m.file.WIM(),
		Reserved: m.reserved,
		Running:  -1,
	}
	if m.running != nil {
		snap.Running = m.running.ID
	}
	for _, t := range m.threads {
		tw := ThreadWindows{ID: t.ID, PRW: t.prw, CWP: t.cwp, Depth: t.depth, Saved: t.saved}
		if t.HasWindows() {
			if t == m.running {
				tw.CWP = m.file.CWP()
			}
			for w := t.bottom; ; w = m.file.Above(w) {
				tw.Slots = append(tw.Slots, w)
				if w == t.high || len(tw.Slots) > m.file.NWindows() {
					break
				}
			}
		} else {
			tw.CWP = noSlot
		}
		snap.Threads = append(snap.Threads, tw)
	}
	sort.Slice(snap.Threads, func(i, j int) bool { return snap.Threads[i].ID < snap.Threads[j].ID })
	return snap
}

// LiveSlots returns the slots holding thread t's live frames, oldest
// first (stack-bottom up to its CWP); nil when the thread is windowless.
// The checker uses it to map resident slots onto oracle frame depths.
// The walk takes Distance(bottom, CWP)+1 steps, so a corrupt region
// cannot make it loop forever.
func (m *machine) LiveSlots(t *Thread) []int {
	if !t.HasWindows() {
		return nil
	}
	cwp := t.cwp
	if t == m.running {
		cwp = m.file.CWP()
	}
	n := m.file.Distance(t.bottom, cwp) + 1
	slots := make([]int, 0, n)
	for w := t.bottom; len(slots) < n; w = m.file.Above(w) {
		slots = append(slots, w)
	}
	return slots
}

// FrameWindow returns the in and local registers of thread t's frame at
// the given call depth as held by the infinite-window oracle, and
// whether that frame exists. The differential checker compares a
// scheme's resident windows against these, frame by frame.
func (r *Reference) FrameWindow(t *Thread, depth int) (ins, locals [regwin.NPart]uint32, ok bool) {
	fs := r.frames[t]
	if depth < 0 || depth >= len(fs) {
		return ins, locals, false
	}
	return fs[depth].ins, fs[depth].locals, true
}

// Globals returns the oracle's global registers, for differential
// comparison against a scheme's register file.
func (r *Reference) Globals() [regwin.NGlobals]uint32 { return r.globals }
