package core

import (
	"fmt"
	"strings"
	"testing"

	"cyclicwin/internal/mem"
	"cyclicwin/internal/regwin"
)

// TestSaveAreaFullAtCapacity checks the save-area capacity rule on
// every manager: the capacity is the allocator's stack size over the
// frame size, a caller that saves until SaveAreaFull reaches depth
// frames-1, a flushing switch at that depth fills the area exactly,
// and every frame comes back intact on the way out.
func TestSaveAreaFullAtCapacity(t *testing.T) {
	for _, s := range []Scheme{SchemeNS, SchemeSNP, SchemeSP, SchemeReference} {
		for _, size := range []uint32{10 * frameBytes, 1 << 16} {
			t.Run(fmt.Sprintf("%v/%d", s, size), func(t *testing.T) {
				m := New(s, Config{Windows: 8, Stacks: mem.NewStackAllocator(0x1000000, size)})
				a, b := m.NewThread(0, "a"), m.NewThread(1, "b")
				frames := int(size / frameBytes)
				if a.SaveAreaFrames() != frames || b.SaveAreaFrames() != frames {
					t.Fatalf("SaveAreaFrames = %d, %d; want %d", a.SaveAreaFrames(), b.SaveAreaFrames(), frames)
				}
				m.Switch(a)
				for !a.SaveAreaFull() {
					m.Save()
					m.SetReg(regwin.RegL0, uint32(a.Depth()))
				}
				if a.Depth() != frames-1 {
					t.Fatalf("SaveAreaFull at depth %d, want %d", a.Depth(), frames-1)
				}
				m.SwitchFlush(b)
				if s != SchemeReference && a.SavedWindows() != frames {
					t.Fatalf("flushed %d frames, want the whole area of %d", a.SavedWindows(), frames)
				}
				m.Switch(a)
				for a.Depth() > 0 {
					if got := m.Reg(regwin.RegL0); got != uint32(a.Depth()) {
						t.Fatalf("depth %d: %%l0 = %d", a.Depth(), got)
					}
					m.Restore()
				}
			})
		}
	}
}

// TestSaveAreaOverrunSparesNeighbour drives the manager directly past a
// thread's save area. Thread a's area lies just above b's, so a's
// 1,025th spilled frame would land on b's outermost frame; pushFrame
// must panic instead of writing it.
func TestSaveAreaOverrunSparesNeighbour(t *testing.T) {
	for _, s := range Schemes {
		t.Run(s.String(), func(t *testing.T) {
			memory := mem.New()
			m := New(s, Config{Windows: 8, Memory: memory})
			a, b := m.NewThread(0, "a"), m.NewThread(1, "b")
			m.Switch(a)
			m.Switch(b)
			m.SetReg(regwin.RegL0, 0xBBBB)
			m.Save()
			m.Switch(a)
			p := func() (p any) {
				defer func() { p = recover() }()
				for i := 0; i < 1100; i++ {
					m.Save()
				}
				return nil
			}()
			if p == nil {
				t.Fatal("1,100 saves into a 1,024-frame save area did not panic")
			}
			if msg := fmt.Sprint(p); !strings.Contains(msg, "pushFrame past its 1024-frame save area") {
				t.Errorf("panic = %q, want pushFrame's save-area panic", msg)
			}
			// b's outermost frame is the first in its area: ins, then
			// locals, so %l0 is word 8.
			if got := memory.Load32(b.saveBase - frameBytes + 4*regwin.NPart); got != 0xBBBB {
				t.Fatalf("b's spilled %%l0 = %#x, want 0xbbbb (overwritten by a); panic: %v", got, p)
			}
		})
	}
}
