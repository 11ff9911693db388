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

// frameAddrs are the addresses the frame tests cover: aligned frames,
// frames ending at or crossing a page end, and misaligned frames.
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

// checkFrameParity fails the test unless StoreFrame and LoadFrame at
// addr act exactly as 16 Store32 and Load32 calls: the same pages
// touched with the same bytes, and the same words read back.
func checkFrameParity(t testing.TB, addr uint32, fr *[16]uint32) {
	t.Helper()
	framed, worded := New(), New()
	framed.StoreFrame(addr, fr)
	for k, v := range fr {
		worded.Store32(addr+uint32(4*k), v)
	}
	pf, pw := framed.TouchedPages(), worded.TouchedPages()
	if !slices.Equal(pf, pw) {
		t.Fatalf("addr %#x: StoreFrame touched pages %#x, Store32 %#x", addr, pf, pw)
	}
	for _, p := range pf {
		if !bytes.Equal(framed.LoadBytes(p, pageSize), worded.LoadBytes(p, pageSize)) {
			t.Fatalf("addr %#x: page %#x differs", addr, p)
		}
	}
	var got [16]uint32
	framed.LoadFrame(addr, &got)
	for k := range got {
		if want := worded.Load32(addr + uint32(4*k)); got[k] != want {
			t.Fatalf("addr %#x: LoadFrame word %d = %#x, Load32 = %#x", addr, k, got[k], want)
		}
	}
}

func TestFrameMatchesWords(t *testing.T) {
	for i, addr := range frameAddrs {
		checkFrameParity(t, addr, testFrame(uint32(i+1)))
	}
}

func TestLoadFrameUntouchedReadsZeros(t *testing.T) {
	for _, addr := range frameAddrs {
		m := New()
		got := *testFrame(7) // stale contents LoadFrame must overwrite
		m.LoadFrame(addr, &got)
		if got != [16]uint32{} {
			t.Errorf("addr %#x: untouched frame reads %#x", addr, got)
		}
		if m.PagesTouched() != 0 {
			t.Errorf("addr %#x: LoadFrame materialised %d pages", addr, m.PagesTouched())
		}
	}
	var zero Memory
	var got [16]uint32
	zero.LoadFrame(0x1000, &got)
	if got != [16]uint32{} || zero.PagesTouched() != 0 {
		t.Errorf("zero Memory: frame %#x, %d pages", got, zero.PagesTouched())
	}
}

func TestStoreFrameWatcherSeesRange(t *testing.T) {
	for _, addr := range frameAddrs {
		m := New()
		type call struct{ addr, n uint32 }
		var calls []call
		m.OnStore(func(a, n uint32) { calls = append(calls, call{a, n}) })
		m.StoreFrame(addr, testFrame(3))
		if len(calls) != 1 || calls[0] != (call{addr, 64}) {
			t.Errorf("addr %#x: watcher saw %v, want one call {%#x 64}", addr, calls, addr)
		}
	}
}

// FuzzFrameParity checks StoreFrame and LoadFrame against 16 Store32
// and Load32 calls at any address, including page-crossing and
// misaligned frames and frames that wrap the 32-bit address space.
func FuzzFrameParity(f *testing.F) {
	for i, addr := range frameAddrs {
		f.Add(addr, bytes.Repeat([]byte{byte(i + 1)}, 64))
	}
	f.Add(uint32(0xffffffe0), []byte("wraps the top of the address space"))
	f.Fuzz(func(t *testing.T, addr uint32, data []byte) {
		var fr [16]uint32
		for i := range fr {
			var w [4]byte
			copy(w[:], data[min(len(data), 4*i):])
			fr[i] = uint32(w[0])<<24 | uint32(w[1])<<16 | uint32(w[2])<<8 | uint32(w[3])
		}
		checkFrameParity(t, addr, &fr)
	})
}

// BenchmarkFrame compares frame operations with per-word access on the
// save-area pattern: 64 consecutive frames, one page, spilled downward
// from the top of the save areas, then filled back.
func BenchmarkFrame(b *testing.B) {
	const frames = 64
	base := uint32(0xfff0000 - frames*64)
	fr := testFrame(1)
	// memory returns a memory whose save-area page already exists, so
	// the timed loop allocates nothing.
	memory := func(b *testing.B) *Memory {
		m := New()
		m.StoreFrame(base, fr)
		b.ReportAllocs()
		b.ResetTimer()
		return m
	}
	var got [16]uint32
	b.Run("store/frame", func(b *testing.B) {
		m := memory(b)
		for i := 0; i < b.N; i++ {
			m.StoreFrame(base+uint32(i%frames)*64, fr)
		}
	})
	b.Run("store/words", func(b *testing.B) {
		m := memory(b)
		for i := 0; i < b.N; i++ {
			a := base + uint32(i%frames)*64
			for k, v := range fr {
				m.Store32(a+uint32(4*k), v)
			}
		}
	})
	b.Run("load/frame", func(b *testing.B) {
		m := memory(b)
		for i := 0; i < b.N; i++ {
			m.LoadFrame(base+uint32(i%frames)*64, &got)
		}
	})
	b.Run("load/words", func(b *testing.B) {
		m := memory(b)
		for i := 0; i < b.N; i++ {
			a := base + uint32(i%frames)*64
			for k := range got {
				got[k] = m.Load32(a + uint32(4*k))
			}
		}
	})
	frameSink = got
}

var frameSink [16]uint32
