package obs

import (
	"strings"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/sched"
)

// traced builds an SP kernel of the given window count with a tracer
// of the given ring size attached.
func traced(windows, limit int) (*Tracer, *sched.Kernel) {
	mgr := core.New(core.SchemeSP, core.Config{Windows: windows})
	tr := NewTracer(limit)
	tr.Attach(mgr)
	return tr, sched.NewKernel(mgr, sched.FIFO)
}

func TestRecordsEventSequence(t *testing.T) {
	tr, k := traced(4, 0)
	k.Spawn("t", func(e *sched.Env) {
		e.Call(func(e *sched.Env) {
			e.Call(func(e *sched.Env) {
				e.Call(func(e *sched.Env) {}) // deep enough to overflow
			})
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[core.EventKind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if kinds[core.EvSwitch] != 1 {
		t.Errorf("switch events = %d, want 1", kinds[core.EvSwitch])
	}
	if kinds[core.EvSave]+kinds[core.EvOverflow] != 3 {
		t.Errorf("save events = %d, want 3", kinds[core.EvSave]+kinds[core.EvOverflow])
	}
	// Under SP every first-time growth save traps (Figure 5 WIM), so
	// all three deepening saves are overflow events.
	if kinds[core.EvOverflow] != 3 {
		t.Errorf("overflow events = %d, want 3 (4 windows, depth 3, SP)", kinds[core.EvOverflow])
	}
	if kinds[core.EvRestore]+kinds[core.EvUnderflow] != 3 {
		t.Errorf("restore events = %d, want 3", kinds[core.EvRestore]+kinds[core.EvUnderflow])
	}
	if kinds[core.EvExit] != 1 {
		t.Errorf("exit events = %d, want 1", kinds[core.EvExit])
	}
	if tr.Total() != uint64(len(evs)) {
		t.Errorf("Total = %d with %d events retained and no wrap", tr.Total(), len(evs))
	}
	// Cycles never decrease.
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("clock went backwards at %d", i)
		}
	}
}

func TestRingKeepsNewest(t *testing.T) {
	tr, k := traced(8, 4)
	k.Spawn("t", func(e *sched.Env) {
		for i := 0; i < 10; i++ {
			e.Call(func(e *sched.Env) {})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring returned %d events, want 4", len(evs))
	}
	if tr.Total() != 22 { // 1 switch + 10 saves + 10 restores + 1 exit
		t.Errorf("Total = %d, want 22", tr.Total())
	}
	// The newest four events are the last call's save and restore, in
	// order, then the exit.
	want := []core.EventKind{core.EvRestore, core.EvSave, core.EvRestore, core.EvExit}
	for i, ev := range evs {
		if ev.Kind != want[i] {
			t.Fatalf("retained kinds %v, want %v", evs, want)
		}
	}
	// Render numbers the retained events from their place in the run.
	var sb strings.Builder
	tr.Render(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(strings.TrimSpace(lines[1]), "18 ") ||
		!strings.HasPrefix(strings.TrimSpace(lines[4]), "21 ") {
		t.Errorf("wrapped render should number events 18..21:\n%s", sb.String())
	}
}

func TestWindowMap(t *testing.T) {
	tr, k := traced(4, 0)
	var mid core.Event
	k.Spawn("t", func(e *sched.Env) {
		e.Call(func(e *sched.Env) {
			evs := tr.Events()
			mid = evs[len(evs)-1]
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	wm := tr.WindowMap(mid)
	if len(wm) != 4 {
		t.Fatalf("window map %q, want 4 slots", wm)
	}
	if !strings.Contains(wm, "*") {
		t.Errorf("window map %q lacks the current window", wm)
	}
	if !strings.Contains(wm, ".") {
		t.Errorf("window map %q lacks invalid windows", wm)
	}
}

func TestRenderAndSummarise(t *testing.T) {
	tr, k := traced(4, 0)
	k.Spawn("a", func(e *sched.Env) { e.Call(func(e *sched.Env) {}) })
	k.Spawn("b", func(e *sched.Env) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tr.Render(&sb)
	for _, frag := range []string{"switch", "save", "restore", "exit", "windows"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("render lacks %q:\n%s", frag, sb.String())
		}
	}
	if lines := strings.Count(sb.String(), "\n"); uint64(lines) != tr.Total()+1 {
		t.Errorf("render has %d lines, want a header and %d events", lines, tr.Total())
	}
	sb.Reset()
	tr.Summarise(&sb)
	if !strings.Contains(sb.String(), "events") {
		t.Error("summary lacks counts")
	}
}

// TestTracerTransparent checks that attaching a tracer does not change
// behaviour: a traced machine produces identical cycles and counters to
// an untraced one.
func TestTracerTransparent(t *testing.T) {
	run := func(trace bool) (uint64, uint64) {
		mgr := core.New(core.SchemeSNP, core.Config{Windows: 6})
		if trace {
			NewTracer(16).Attach(mgr)
		}
		k := sched.NewKernel(mgr, sched.FIFO)
		for i := 0; i < 3; i++ {
			k.Spawn("t", func(e *sched.Env) {
				for j := 0; j < 5; j++ {
					e.Call(func(e *sched.Env) { e.Yield() })
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return mgr.Cycles().Total(), mgr.Counters().Switches
	}
	ac, as := run(false)
	bc, bs := run(true)
	if ac != bc || as != bs {
		t.Errorf("traced run took %d cycles, %d switches; untraced %d, %d", bc, bs, ac, as)
	}
}
