package sched

import (
	"errors"
	"testing"

	"cyclicwin/internal/core"
	"cyclicwin/internal/fault"
)

// TestCallPastSaveAreaFails recurses one thread deeper than its
// 1,024-frame save area while another thread's windows sit in the area
// just below. The call that would overrun must fail the thread with an
// InvalidWindowOp guest fault, and the other thread's %l0 must survive.
func TestCallPastSaveAreaFails(t *testing.T) {
	for _, s := range core.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			k := NewKernel(core.New(s, core.Config{Windows: 8}), FIFO)
			depth := 0
			var recurse func(e *Env)
			recurse = func(e *Env) {
				depth++
				e.SetLocal(0, uint32(0xA000+depth))
				if depth < 1100 {
					e.Call(recurse)
				}
			}
			k.Spawn("a", func(e *Env) {
				e.Yield()
				e.Call(recurse)
			})
			var got uint32
			read := false
			k.Spawn("b", func(e *Env) {
				e.SetLocal(0, 0xBBBB)
				e.Call(func(e *Env) { e.Yield() })
				got, read = e.Local(0), true
			})
			err := k.Run()
			var gf *fault.GuestFault
			if !errors.As(err, &gf) || gf.Kind != fault.InvalidWindowOp || gf.Thread != "a" {
				t.Fatalf("Run = %v, want an InvalidWindowOp guest fault of thread a", err)
			}
			if depth != 1023 {
				t.Errorf("a failed at call depth %d, want 1023 (1,024 frames with its outermost)", depth)
			}
			if read && got != 0xBBBB {
				t.Errorf("b reads %%l0 = %#x, want 0xbbbb", got)
			}
		})
	}
}
