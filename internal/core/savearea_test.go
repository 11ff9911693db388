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
// and every frame comes back intact on the way out. Every depth writes
// all its ins and locals, and the flushed area is read back byte by
// byte: frame i (counting from 1) below the area's top holds depth
// i-1's ins then locals as big-endian words. The 1,024-frame area spans
// 16 pages, so a save-area page cache that goes stale at a page
// boundary, or a page format that shows through the byte view, fails.
func TestSaveAreaFullAtCapacity(t *testing.T) {
	// word is frame word k (ins 0-7, locals 8-15) of depth d: four
	// distinct bytes, so a byte-order slip shows.
	word := func(d, k int) uint32 { return uint32(k+1)<<24 | uint32(d)<<8 | 0xc3 }
	reg := func(k int) int {
		if k < regwin.NPart {
			return regwin.RegI0 + k
		}
		return regwin.RegL0 + k - regwin.NPart
	}
	const top = 0x1000000
	for _, s := range []Scheme{SchemeNS, SchemeSNP, SchemeSP, SchemeReference} {
		for _, size := range []uint32{10 * frameBytes, 1 << 16} {
			t.Run(fmt.Sprintf("%v/%d", s, size), func(t *testing.T) {
				memory := mem.New()
				m := New(s, Config{Windows: 8, Memory: memory, Stacks: mem.NewStackAllocator(top, size)})
				a, b := m.NewThread(0, "a"), m.NewThread(1, "b")
				frames := int(size / frameBytes)
				if a.SaveAreaFrames() != frames || b.SaveAreaFrames() != frames {
					t.Fatalf("SaveAreaFrames = %d, %d; want %d", a.SaveAreaFrames(), b.SaveAreaFrames(), frames)
				}
				fill := func() {
					for k := 0; k < regwin.WindowWords; k++ {
						m.SetReg(reg(k), word(a.Depth(), k))
					}
				}
				m.Switch(a)
				fill()
				for !a.SaveAreaFull() {
					m.Save()
					fill()
				}
				if a.Depth() != frames-1 {
					t.Fatalf("SaveAreaFull at depth %d, want %d", a.Depth(), frames-1)
				}
				m.SwitchFlush(b)
				if s != SchemeReference {
					if a.SavedWindows() != frames {
						t.Fatalf("flushed %d frames, want the whole area of %d", a.SavedWindows(), frames)
					}
					for i := 1; i <= frames; i++ {
						for k := 0; k < regwin.WindowWords; k++ {
							addr := top - uint32(i*frameBytes) + uint32(4*k)
							w := word(i-1, k)
							for j := uint32(0); j < 4; j++ {
								if got, want := memory.Load8(addr+j), byte(w>>(24-8*j)); got != want {
									t.Fatalf("frame %d word %d: Load8(%#x) = %#x, want %#x", i, k, addr+j, got, want)
								}
							}
						}
					}
				}
				m.Switch(a)
				for {
					for k := 0; k < regwin.WindowWords; k++ {
						if got, want := m.Reg(reg(k)), word(a.Depth(), k); got != want {
							t.Fatalf("depth %d: r%d = %#x, want %#x", a.Depth(), reg(k), got, want)
						}
					}
					if a.Depth() == 0 {
						break
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
			// b's outermost frame is the first in its area, below the
			// top of the manager's second stack: ins, then locals, so
			// %l0 is word 8.
			stacks := Config{}.stacks()
			stacks.Alloc()
			bTop := stacks.Alloc()
			if got := memory.Load32(bTop - frameBytes + 4*regwin.NPart); got != 0xBBBB {
				t.Fatalf("b's spilled %%l0 = %#x, want 0xbbbb (overwritten by a); panic: %v", got, p)
			}
		})
	}
}
