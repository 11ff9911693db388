package regwin

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewFilePanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 0, 1, MaxWindows + 1, 1000} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFile(%d) did not panic", n)
				}
			}()
			NewFile(n)
		}()
	}
}

func TestAboveBelowWrap(t *testing.T) {
	f := NewFile(8)
	if got := f.Above(0); got != 7 {
		t.Errorf("Above(0) = %d, want 7", got)
	}
	if got := f.Below(7); got != 0 {
		t.Errorf("Below(7) = %d, want 0", got)
	}
	if got := f.Above(5); got != 4 {
		t.Errorf("Above(5) = %d, want 4", got)
	}
	if got := f.Below(5); got != 6 {
		t.Errorf("Below(5) = %d, want 6", got)
	}
}

func TestDistance(t *testing.T) {
	f := NewFile(8)
	cases := []struct{ from, to, want int }{
		{0, 0, 0},
		{5, 3, 2}, // walking upward (Above) from 5 reaches 3 in 2 steps
		{3, 5, 6},
		{0, 7, 1},
		{7, 0, 7},
	}
	for _, c := range cases {
		if got := f.Distance(c.from, c.to); got != c.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestOutInAliasing(t *testing.T) {
	f := NewFile(4)
	f.SetCWP(2)
	// Writing the outs of window 2 must be visible as the ins of window 1.
	for i := 0; i < NPart; i++ {
		f.SetReg(RegO0+i, uint32(100+i))
	}
	for i := 0; i < NPart; i++ {
		if got := f.RegW(1, RegI0+i); got != uint32(100+i) {
			t.Errorf("ins[1][%d] = %d, want %d", i, got, 100+i)
		}
	}
	// And after a save (CWP 2 -> 1) the callee reads them as its ins.
	if !f.Save() {
		t.Fatal("save trapped with empty WIM")
	}
	if f.CWP() != 1 {
		t.Fatalf("CWP = %d after save, want 1", f.CWP())
	}
	for i := 0; i < NPart; i++ {
		if got := f.Reg(RegI0 + i); got != uint32(100+i) {
			t.Errorf("callee in %d = %d, want %d", i, got, 100+i)
		}
	}
}

func TestG0HardwiredZero(t *testing.T) {
	f := NewFile(4)
	f.SetReg(0, 12345)
	if got := f.Reg(0); got != 0 {
		t.Errorf("%%g0 = %d, want 0", got)
	}
}

func TestGlobalsSharedAcrossWindows(t *testing.T) {
	f := NewFile(4)
	f.SetRegW(0, 3, 777)
	for w := 0; w < 4; w++ {
		if got := f.RegW(w, 3); got != 777 {
			t.Errorf("globals[3] from window %d = %d, want 777", w, got)
		}
	}
}

func TestLocalsPrivatePerWindow(t *testing.T) {
	f := NewFile(4)
	for w := 0; w < 4; w++ {
		f.SetRegW(w, RegL0, uint32(w+1))
	}
	for w := 0; w < 4; w++ {
		if got := f.RegW(w, RegL0); got != uint32(w+1) {
			t.Errorf("locals[%d][0] = %d, want %d", w, got, w+1)
		}
	}
}

func TestWIMTraps(t *testing.T) {
	f := NewFile(4)
	f.SetCWP(2)
	f.SetInvalid(1, true)
	if !f.SaveWouldTrap() {
		t.Error("save into invalid window 1 should trap")
	}
	if f.Save() {
		t.Error("Save succeeded into invalid window")
	}
	if f.CWP() != 2 {
		t.Errorf("CWP moved to %d on trapped save", f.CWP())
	}
	f.SetInvalid(1, false)
	f.SetInvalid(3, true)
	if !f.RestoreWouldTrap() {
		t.Error("restore into invalid window 3 should trap")
	}
	if f.Restore() {
		t.Error("Restore succeeded into invalid window")
	}
	if !f.Save() {
		t.Error("Save trapped with window 1 valid")
	}
}

func TestSetWIMMasksToWindowCount(t *testing.T) {
	f := NewFile(4)
	f.SetWIM(MaskAll(MaxWindows))
	if f.WIM() != MaskOf(0xf) {
		t.Errorf("WIM = %v, want 0xf", f.WIM())
	}
	if f.InvalidCount() != 4 {
		t.Errorf("InvalidCount = %d, want 4", f.InvalidCount())
	}
}

func TestSpillFillRoundTrip(t *testing.T) {
	f := NewFile(5)
	for i := 0; i < NPart; i++ {
		f.SetRegW(3, RegI0+i, uint32(10+i))
		f.SetRegW(3, RegL0+i, uint32(20+i))
	}
	var buf [WindowWords]uint32
	f.SpillWindow(3, &buf)
	f.ClearWindow(3)
	for i := 0; i < NPart; i++ {
		if f.RegW(3, RegI0+i) != 0 || f.RegW(3, RegL0+i) != 0 {
			t.Fatal("ClearWindow left data behind")
		}
	}
	f.FillWindow(3, &buf)
	for i := 0; i < NPart; i++ {
		if got := f.RegW(3, RegI0+i); got != uint32(10+i) {
			t.Errorf("in[%d] = %d after round trip, want %d", i, got, 10+i)
		}
		if got := f.RegW(3, RegL0+i); got != uint32(20+i) {
			t.Errorf("local[%d] = %d after round trip, want %d", i, got, 20+i)
		}
	}
}

func TestCopyInsToOuts(t *testing.T) {
	f := NewFile(4)
	for i := 0; i < NPart; i++ {
		f.SetRegW(2, RegI0+i, uint32(50+i))
	}
	f.CopyInsToOuts(2)
	for i := 0; i < NPart; i++ {
		if got := f.RegW(2, RegO0+i); got != uint32(50+i) {
			t.Errorf("out[%d] = %d after CopyInsToOuts, want %d", i, got, 50+i)
		}
		// Physically the ins of the window above.
		if got := f.RegW(1, RegI0+i); got != uint32(50+i) {
			t.Errorf("ins[1][%d] = %d, want %d", i, got, 50+i)
		}
	}
}

func TestSaveRestoreFullCycle(t *testing.T) {
	// With an empty WIM, n saves walk the CWP around the whole file.
	f := NewFile(6)
	start := f.CWP()
	for i := 0; i < 6; i++ {
		if !f.Save() {
			t.Fatal("save trapped with empty WIM")
		}
	}
	if f.CWP() != start {
		t.Errorf("CWP = %d after full cycle, want %d", f.CWP(), start)
	}
	for i := 0; i < 6; i++ {
		if !f.Restore() {
			t.Fatal("restore trapped with empty WIM")
		}
	}
	if f.CWP() != start {
		t.Errorf("CWP = %d after restores, want %d", f.CWP(), start)
	}
}

func TestDistanceProperty(t *testing.T) {
	f := NewFile(16)
	// Distance(w, Above^k(w)) == k mod n for any k.
	prop := func(w, k uint8) bool {
		start := int(w) % 16
		steps := int(k) % 16
		v := start
		for i := 0; i < steps; i++ {
			v = f.Above(v)
		}
		return f.Distance(start, v) == steps
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRegisterRangePanics(t *testing.T) {
	f := NewFile(4)
	defer func() {
		if recover() == nil {
			t.Error("RegW(32) did not panic")
		}
	}()
	f.RegW(0, 32)
}

// modulo is the reference wrap the file's compare-and-add arithmetic
// must agree with.
func modulo(w, n int) int { return (w%n + n) % n }

func TestWrapMatchesModulo(t *testing.T) {
	for n := MinWindows; n <= MaxWindows; n++ {
		f := NewFile(n)
		others := []int{-3 * n, -n, -1, 0, 1, n - 1, n, 2*n - 1, 3 * n}
		for w := -3 * n; w <= 3*n; w++ {
			if got, want := f.Above(w), modulo(w-1, n); got != want {
				t.Fatalf("n=%d: Above(%d) = %d, want %d", n, w, got, want)
			}
			if got, want := f.Below(w), modulo(w+1, n); got != want {
				t.Fatalf("n=%d: Below(%d) = %d, want %d", n, w, got, want)
			}
			for _, v := range others {
				if got, want := f.Distance(w, v), modulo(w-v, n); got != want {
					t.Fatalf("n=%d: Distance(%d,%d) = %d, want %d", n, w, v, got, want)
				}
				if got, want := f.Distance(v, w), modulo(v-w, n); got != want {
					t.Fatalf("n=%d: Distance(%d,%d) = %d, want %d", n, v, w, got, want)
				}
			}
			f.SetCWP(w)
			if got, want := f.CWP(), modulo(w, n); got != want {
				t.Fatalf("n=%d: SetCWP(%d) left CWP %d, want %d", n, w, got, want)
			}
		}
	}
}

// TestCachedWindowProperty drives random sequences of every operation
// that moves the CWP or rewrites window contents and checks, after each
// step, that the cached current window reads exactly what the general
// window decode reads for the current slot.
func TestCachedWindowProperty(t *testing.T) {
	prop := func(size uint8, ops []uint16, vals []uint32) bool {
		n := MinWindows + int(size)%(MaxWindows-MinWindows+1)
		f := NewFile(n)
		val := func(i int) uint32 {
			if len(vals) == 0 {
				return uint32(i) * 2654435761
			}
			return vals[i%len(vals)]
		}
		for i, op := range ops {
			arg := int(op >> 4)
			switch op % 10 {
			case 0:
				f.SetCWP(arg - 2*n) // exercises the wrap outside [0, n)
			case 1:
				f.Save()
			case 2:
				f.Restore()
			case 3:
				f.SetWIM(MaskOf(uint64(val(i))))
			case 4:
				var buf [WindowWords]uint32
				for k := range buf {
					buf[k] = val(i + k)
				}
				f.FillWindow(arg, &buf)
			case 5:
				f.CopyInsToOuts(arg)
			case 6:
				f.ClearWindow(arg)
			case 7:
				f.SetReg(arg%32, val(i))
			case 8:
				f.SetRegW(arg, arg%32, val(i))
			case 9:
				f.SetInvalid(arg, arg%2 == 0)
			}
			for r := 0; r < 32; r++ {
				if f.Reg(r) != f.RegW(f.CWP(), r) {
					t.Logf("n=%d op %d (%d): Reg(%d) = %#x, RegW(%d, %d) = %#x",
						n, i, op%10, r, f.Reg(r), f.CWP(), r, f.RegW(f.CWP(), r))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSetRegVisibleEverywhere checks that a write through the cached
// current window lands in the same storage RegW, Ins, Locals and Outs
// read, including the out registers' alias in the window above.
func TestSetRegVisibleEverywhere(t *testing.T) {
	for _, n := range []int{MinWindows, 3, 8, MaxWindows} {
		f := NewFile(n)
		for _, cwp := range []int{0, 1, n - 1} {
			f.SetCWP(cwp)
			for r := 1; r < 32; r++ {
				f.SetReg(r, uint32(1000*cwp+r))
			}
			for r := 1; r < 32; r++ {
				want := uint32(1000*cwp + r)
				if got := f.RegW(cwp, r); got != want {
					t.Fatalf("n=%d cwp=%d: RegW(r%d) = %d, want %d", n, cwp, r, got, want)
				}
				var got uint32
				switch {
				case r < RegO0:
					got = f.RegW(f.Below(cwp), r) // globals are shared
				case r < RegL0:
					got = f.Outs(cwp)[r-RegO0]
					if alias := f.Ins(f.Above(cwp))[r-RegO0]; alias != want {
						t.Fatalf("n=%d cwp=%d: out r%d not aliased to the ins above (%d)", n, cwp, r, alias)
					}
				case r < RegI0:
					got = f.Locals(cwp)[r-RegL0]
				default:
					got = f.Ins(cwp)[r-RegI0]
				}
				if got != want {
					t.Fatalf("n=%d cwp=%d: r%d reads %d through its partition, want %d", n, cwp, r, got, want)
				}
			}
			if f.Reg(0) != 0 {
				t.Fatalf("n=%d: %%g0 = %d", n, f.Reg(0))
			}
		}
	}
}

// BenchmarkRegAccess measures Reg and SetReg over all four partitions
// while the CWP moves around the file, as a call-heavy guest does.
func BenchmarkRegAccess(b *testing.B) {
	for _, n := range []int{8, 256} {
		b.Run(fmt.Sprintf("windows=%d", n), func(b *testing.B) {
			f := NewFile(n)
			b.ReportAllocs()
			b.ResetTimer()
			var s uint32
			for i := 0; i < b.N; i++ {
				if i%(2*n) < n {
					f.Save()
				} else {
					f.Restore()
				}
				for r := 0; r < 32; r++ {
					f.SetReg(r, uint32(i+r))
					s += f.Reg(r)
				}
			}
			regSink = s
		})
	}
}

var regSink uint32
