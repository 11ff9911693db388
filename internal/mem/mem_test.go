package mem

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	if got := m.Load8(100); got != 0 {
		t.Errorf("untouched byte = %d, want 0", got)
	}
	m.Store8(100, 42)
	if got := m.Load8(100); got != 42 {
		t.Errorf("byte = %d, want 42", got)
	}
}

func TestBigEndianWord(t *testing.T) {
	m := New()
	m.Store32(0x1000, 0x11223344)
	want := []byte{0x11, 0x22, 0x33, 0x44}
	if got := m.LoadBytes(0x1000, 4); !bytes.Equal(got, want) {
		t.Errorf("bytes = %x, want %x", got, want)
	}
	if got := m.Load32(0x1000); got != 0x11223344 {
		t.Errorf("word = %#x, want 0x11223344", got)
	}
}

func TestWordCrossingPageBoundary(t *testing.T) {
	m := New()
	addr := uint32(0x1ffe) // straddles the 4 KiB page boundary
	m.Store32(addr, 0xdeadbeef)
	if got := m.Load32(addr); got != 0xdeadbeef {
		t.Errorf("cross-page word = %#x, want 0xdeadbeef", got)
	}
	if m.PagesTouched() != 2 {
		t.Errorf("PagesTouched = %d, want 2", m.PagesTouched())
	}
}

func TestStoreLoadBytesRoundTrip(t *testing.T) {
	m := New()
	data := []byte("the quick brown fox")
	m.StoreBytes(0x8000, data)
	if got := m.LoadBytes(0x8000, len(data)); !bytes.Equal(got, data) {
		t.Errorf("round trip = %q, want %q", got, data)
	}
}

func TestWordRoundTripProperty(t *testing.T) {
	m := New()
	prop := func(addr, v uint32) bool {
		addr &^= 3
		m.Store32(addr, v)
		return m.Load32(addr) == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStackAllocatorDisjoint(t *testing.T) {
	a := NewStackAllocator(0x100000, 0x1000)
	s1 := a.Alloc()
	s2 := a.Alloc()
	s3 := a.Alloc()
	if s1 != 0x100000 || s2 != 0xff000 || s3 != 0xfe000 {
		t.Errorf("allocations = %#x %#x %#x", s1, s2, s3)
	}
}

// frameAddrs are the addresses the frame tests put frame 1 at:
// aligned frames, frames ending at or crossing a page end, and
// misaligned frames. Each test's area runs on from there downward
// across at least one page boundary.
var frameAddrs = []uint32{
	0x1000, 0x2040, 0xfff0000 - 64,
	0x3000 + pageSize - 64, 0x3000 + pageSize - 60, 0x3000 + pageSize - 4,
	0x5001, 0x6ffe, 0x7000 + pageSize - 63,
}

func testFrame(seed uint32) *[16]uint32 {
	var fr [16]uint32
	for i := range fr {
		fr[i] = seed*2654435761 + uint32(i)*0x01010101
	}
	return &fr
}

// checkSaveArea fails the test unless a SaveArea whose frame 1 lies at
// addr acts exactly as 16 Store32 or Load32 calls per frame under ops,
// the way a thread pushes and pops frames: an even op byte stores the
// next frame, an odd one loads the newest and drops it. Both memories
// must touch the same pages with the same bytes, and every load must
// read back what the words read. Frames are numbered past a page's 64
// frames, so the area's page cache must follow its frames across page
// boundaries both ways.
func checkSaveArea(t testing.TB, addr uint32, ops []byte) {
	t.Helper()
	framed, worded := New(), New()
	area := NewSaveArea(addr + frameBytes)
	n := 0
	for step, op := range ops {
		if op&1 == 0 {
			n++
			fr := testFrame(uint32(op)<<8 | uint32(step))
			area.Store(framed, n, fr)
			for k, v := range fr {
				worded.Store32(area.top-uint32(n*frameBytes)+uint32(4*k), v)
			}
			continue
		}
		if n == 0 {
			continue
		}
		var got [16]uint32
		area.Load(framed, n, &got)
		for k := range got {
			if want := worded.Load32(area.top - uint32(n*frameBytes) + uint32(4*k)); got[k] != want {
				t.Fatalf("top %#x step %d: frame %d word %d = %#x, Load32 = %#x", area.top, step, n, k, got[k], want)
			}
		}
		n--
	}
	pf, pw := framed.TouchedPages(), worded.TouchedPages()
	if !slices.Equal(pf, pw) {
		t.Fatalf("top %#x: the save area touched pages %#x, Store32 %#x", area.top, pf, pw)
	}
	for _, p := range pf {
		if !bytes.Equal(framed.LoadBytes(p, pageSize), worded.LoadBytes(p, pageSize)) {
			t.Fatalf("top %#x: page %#x differs", area.top, p)
		}
	}
}

// pushPop returns op bytes that store pushes frames, load pops of them,
// store more, and load every frame back.
func pushPop(pushes, pops, more int) []byte {
	var ops []byte
	for i := 0; i < pushes+more; i++ {
		ops = append(ops, byte(2*i))
		if i == pushes-1 {
			ops = append(ops, bytes.Repeat([]byte{1}, pops)...)
		}
	}
	return append(ops, bytes.Repeat([]byte{1}, pushes-pops+more)...)
}

func TestFrameMatchesWords(t *testing.T) {
	for _, addr := range frameAddrs {
		checkSaveArea(t, addr, pushPop(70, 10, 70))
		checkSaveArea(t, addr, pushPop(64, 64, 130))
	}
}

func TestLoadFrameUntouchedReadsZeros(t *testing.T) {
	for _, addr := range frameAddrs {
		m := New()
		area := NewSaveArea(addr + 2*frameBytes)
		for i := 1; i <= 2; i++ {
			got := *testFrame(7) // stale contents Load must overwrite
			area.Load(m, i, &got)
			if got != [16]uint32{} {
				t.Errorf("addr %#x: untouched frame %d reads %#x", addr, i, got)
			}
		}
		if m.PagesTouched() != 0 {
			t.Errorf("addr %#x: Load materialised %d pages", addr, m.PagesTouched())
		}
	}
	var zero Memory
	var got [16]uint32
	area := NewSaveArea(0x1040)
	area.Load(&zero, 1, &got)
	if got != [16]uint32{} || zero.PagesTouched() != 0 {
		t.Errorf("zero Memory: frame %#x, %d pages", got, zero.PagesTouched())
	}
}

// FuzzFrameParity checks a SaveArea's frame stores and loads, in any
// push and pop order, against 16 Store32 and Load32 calls per frame at
// any address, including page-crossing and misaligned frames and areas
// that wrap the 32-bit address space.
func FuzzFrameParity(f *testing.F) {
	for i, addr := range frameAddrs {
		f.Add(addr, pushPop(66+i, i, 3))
	}
	f.Add(uint32(0x1f), []byte("wraps the bottom of the address space"))
	f.Fuzz(func(t *testing.T, addr uint32, ops []byte) {
		checkSaveArea(t, addr, ops)
	})
}

// memOp is one FuzzMemoryModel operation, decoded from 7 input bytes:
// a kind, an address near an anchor, and a value.
type memOp struct {
	kind byte
	addr uint32
	v    uint32
}

// memAnchors are page boundaries, the bottom and the top of the
// address space among them, and a save-area top; a fuzzed address is
// an anchor plus a signed byte, so accesses straddle pages and wrap.
var memAnchors = []uint32{0, 0x1000, 0x2000, 0x10000, 0xfff0000, 0xfffff000}

func decodeMemOps(data []byte) []memOp {
	var ops []memOp
	for ; len(data) >= 7; data = data[7:] {
		anchor := memAnchors[int(data[1])%len(memAnchors)]
		ops = append(ops, memOp{
			kind: data[0],
			addr: anchor + uint32(int32(int8(data[2]))),
			v:    uint32(data[3])<<24 | uint32(data[4])<<16 | uint32(data[5])<<8 | uint32(data[6]),
		})
	}
	return ops
}

// FuzzMemoryModel runs random sequences of Store8, Store32 and save-area
// frame stores, and Load8, Load32, LoadBytes and frame loads, against a
// flat byte map holding the same bytes big-endian: every read must
// match the map, the pages touched must be those of the bytes stored,
// and each touched page must read back as the map holds it. Accesses
// are aligned, misaligned, page-crossing and wrapping.
func FuzzMemoryModel(f *testing.F) {
	f.Add([]byte{
		1, 1, 0xfe, 0xde, 0xad, 0xbe, 0xef, // Store32 across 0x1000
		3, 1, 0xfe, 0, 0, 0, 0, // Load32 back
		0, 5, 0xff, 0, 0, 0, 0x5a, // Store8 at the top byte
		1, 0, 0xfe, 0x11, 0x22, 0x33, 0x44, // Store32 wrapping past 0
		4, 0, 0xfe, 0, 0, 0, 6, // LoadBytes across the wrap
		5, 4, 0, 0, 0, 0, 65, // frame store, area at 0xfff0000
		6, 4, 0, 0, 0, 0, 65, // frame load
	})
	f.Add([]byte{1, 2, 1, 1, 2, 3, 4, 2, 2, 3, 0, 0, 0, 0, 3, 2, 2, 0, 0, 0, 0, 4, 2, 0, 0, 0, 0, 9})
	f.Add([]byte{
		1, 4, 0, 0x11, 0x22, 0x33, 0x44, // aligned Store32; the area's top is 0xfff0000
		2, 4, 1, 0, 0, 0, 0, // Load8 of its second byte
		4, 4, 0, 0, 0, 0, 4, // LoadBytes of the word
		0, 2, 3, 0, 0, 0, 0x77, // Store8 at 0x2003
		3, 2, 0, 0, 0, 0, 0, // aligned Load32 over it
		5, 4, 0, 0, 0, 0, 1, // frame 2 store, aligned
		4, 4, 0x80, 0, 0, 0, 15, // LoadBytes of its first words
		2, 4, 0x81, 0, 0, 0, 0, // Load8 inside its first word
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New()
		model := map[uint32]byte{}
		load8 := func(a uint32) byte { return model[a] }
		load32 := func(a uint32) uint32 {
			return uint32(load8(a))<<24 | uint32(load8(a+1))<<16 | uint32(load8(a+2))<<8 | uint32(load8(a+3))
		}
		store32 := func(a, v uint32) {
			for k := uint32(0); k < 4; k++ {
				model[a+k] = byte(v >> (24 - 8*k))
			}
		}
		var area SaveArea
		for i, op := range decodeMemOps(data) {
			if i == 0 {
				area = NewSaveArea(op.addr)
			}
			frameAddr := func() (int, uint32) {
				n := 1 + int(op.v%130)
				return n, area.top - uint32(n*frameBytes)
			}
			switch op.kind % 7 {
			case 0:
				m.Store8(op.addr, byte(op.v))
				model[op.addr] = byte(op.v)
			case 1:
				m.Store32(op.addr, op.v)
				store32(op.addr, op.v)
			case 2:
				if got, want := m.Load8(op.addr), load8(op.addr); got != want {
					t.Fatalf("op %d: Load8(%#x) = %#x, want %#x", i, op.addr, got, want)
				}
			case 3:
				if got, want := m.Load32(op.addr), load32(op.addr); got != want {
					t.Fatalf("op %d: Load32(%#x) = %#x, want %#x", i, op.addr, got, want)
				}
			case 4:
				got := m.LoadBytes(op.addr, int(op.v%16))
				for k, b := range got {
					if want := load8(op.addr + uint32(k)); b != want {
						t.Fatalf("op %d: LoadBytes(%#x) byte %d = %#x, want %#x", i, op.addr, k, b, want)
					}
				}
			case 5:
				n, a := frameAddr()
				fr := testFrame(op.v)
				area.Store(m, n, fr)
				for k, v := range fr {
					store32(a+uint32(4*k), v)
				}
			case 6:
				n, a := frameAddr()
				var got [16]uint32
				area.Load(m, n, &got)
				for k := range got {
					if want := load32(a + uint32(4*k)); got[k] != want {
						t.Fatalf("op %d: frame %d below %#x word %d = %#x, want %#x", i, n, area.top, k, got[k], want)
					}
				}
			}
		}
		var pages []uint32
		for a := range model {
			if p := a &^ pageMask; !slices.Contains(pages, p) {
				pages = append(pages, p)
			}
		}
		slices.Sort(pages)
		if got := m.TouchedPages(); !slices.Equal(got, pages) {
			t.Fatalf("touched pages %#x, stored bytes lie in %#x", got, pages)
		}
		for _, p := range pages {
			for k, b := range m.LoadBytes(p, pageSize) {
				if want := load8(p + uint32(k)); b != want {
					t.Fatalf("byte %#x = %#x, want %#x", p+uint32(k), b, want)
				}
			}
		}
	})
}

// BenchmarkFrame compares a save area's frame stores and loads, the
// path every spill and fill takes, with per-word access on the
// save-area pattern: 64 consecutive frames, one page, spilled downward
// from the top of the save areas, then filled back.
func BenchmarkFrame(b *testing.B) {
	const frames = 64
	const top = uint32(0xfff0000)
	fr := testFrame(1)
	// memory returns a memory whose save-area page already exists, so
	// the timed loop allocates nothing.
	memory := func(b *testing.B) (*Memory, *SaveArea) {
		m := New()
		area := NewSaveArea(top)
		area.Store(m, 1, fr)
		b.ReportAllocs()
		b.ResetTimer()
		return m, &area
	}
	var got [16]uint32
	b.Run("store/frame", func(b *testing.B) {
		m, area := memory(b)
		for i := 0; i < b.N; i++ {
			area.Store(m, 1+i%frames, fr)
		}
	})
	b.Run("store/words", func(b *testing.B) {
		m, _ := memory(b)
		for i := 0; i < b.N; i++ {
			a := top - uint32(1+i%frames)*frameBytes
			for k, v := range fr {
				m.Store32(a+uint32(4*k), v)
			}
		}
	})
	b.Run("load/frame", func(b *testing.B) {
		m, area := memory(b)
		for i := 0; i < b.N; i++ {
			area.Load(m, 1+i%frames, &got)
		}
	})
	b.Run("load/words", func(b *testing.B) {
		m, _ := memory(b)
		for i := 0; i < b.N; i++ {
			a := top - uint32(1+i%frames)*frameBytes
			for k := range got {
				got[k] = m.Load32(a + uint32(4*k))
			}
		}
	})
	frameSink = got
}

var frameSink [16]uint32
