// Package mem provides the byte-addressed simulated memory used by the
// register-window machine: window save areas, guest thread stacks, and
// data for the ISA interpreter. The memory is sparse and paged, and, as
// on SPARC, big-endian.
package mem

import (
	"encoding/binary"
	"sort"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// frameBytes is the size of one LoadFrame/StoreFrame frame: 16
	// words, one spilled register window.
	frameBytes = 16 * 4
)

// Memory is a sparse, paged, big-endian byte-addressed memory. The zero
// value is ready to use.
type Memory struct {
	pages    map[uint32]*[pageSize]byte
	watchers []func(addr, n uint32)
}

// OnStore registers fn to be called after every store, with the address
// and byte length of the stored range. The interpreter's predecoded
// instruction cache uses this to invalidate decoded words when a
// program writes into its own text segment; watchers fire
// synchronously, before the store's caller regains control, so the
// very next fetch sees the new word. Watchers must be cheap: they run
// on the store hot path (they are expected to reject out-of-range
// addresses in a compare or two).
func (m *Memory) OnStore(fn func(addr, n uint32)) {
	m.watchers = append(m.watchers, fn)
}

func (m *Memory) notifyStore(addr, n uint32) {
	for _, fn := range m.watchers {
		fn(addr, n)
	}
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32) *[pageSize]byte {
	if m.pages == nil {
		m.pages = make(map[uint32]*[pageSize]byte)
	}
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// Load8 reads the byte at addr; untouched memory reads as zero.
func (m *Memory) Load8(addr uint32) byte {
	if m.pages == nil {
		return 0
	}
	p := m.pages[addr>>pageShift]
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Store8 writes one byte at addr.
func (m *Memory) Store8(addr uint32, v byte) {
	m.page(addr)[addr&pageMask] = v
	if m.watchers != nil {
		m.notifyStore(addr, 1)
	}
}

// Load32 reads a big-endian 32-bit word at addr. The address need not be
// aligned; the ISA layer enforces alignment before calling. Aligned
// words (the common case: instruction fetch, ld/st) resolve the page
// once instead of per byte.
func (m *Memory) Load32(addr uint32) uint32 {
	if addr&3 == 0 {
		if m.pages == nil {
			return 0
		}
		p := m.pages[addr>>pageShift]
		if p == nil {
			return 0
		}
		o := addr & pageMask
		return uint32(p[o])<<24 | uint32(p[o+1])<<16 | uint32(p[o+2])<<8 | uint32(p[o+3])
	}
	return uint32(m.Load8(addr))<<24 | uint32(m.Load8(addr+1))<<16 |
		uint32(m.Load8(addr+2))<<8 | uint32(m.Load8(addr+3))
}

// Store32 writes a big-endian 32-bit word at addr.
func (m *Memory) Store32(addr uint32, v uint32) {
	if addr&3 == 0 {
		p := m.page(addr)
		o := addr & pageMask
		p[o] = byte(v >> 24)
		p[o+1] = byte(v >> 16)
		p[o+2] = byte(v >> 8)
		p[o+3] = byte(v)
		if m.watchers != nil {
			m.notifyStore(addr, 4)
		}
		return
	}
	m.Store8(addr, byte(v>>24))
	m.Store8(addr+1, byte(v>>16))
	m.Store8(addr+2, byte(v>>8))
	m.Store8(addr+3, byte(v))
}

// StoreFrame writes the 16 words of fr from addr on, exactly as 16
// Store32 calls at addr, addr+4, ... would, and tells the store watchers
// once about the whole 64-byte range. A frame inside one page (every
// frame of a window save area) resolves the page once; a frame that
// crosses a page boundary falls back to byte stores.
func (m *Memory) StoreFrame(addr uint32, fr *[16]uint32) {
	if o := addr & pageMask; o <= pageSize-frameBytes {
		b := (*[frameBytes]byte)(m.page(addr)[o:])
		for i, v := range fr {
			binary.BigEndian.PutUint32(b[4*i:], v)
		}
	} else {
		for i, v := range fr {
			a := addr + uint32(4*i)
			for k := uint32(0); k < 4; k++ {
				m.page(a + k)[(a+k)&pageMask] = byte(v >> (24 - 8*k))
			}
		}
	}
	if m.watchers != nil {
		m.notifyStore(addr, frameBytes)
	}
}

// LoadFrame reads 16 words from addr on into fr, exactly as 16 Load32
// calls would. Like Load32 it materialises no page: an untouched page
// reads as zeros. A frame inside one page resolves the page once.
func (m *Memory) LoadFrame(addr uint32, fr *[16]uint32) {
	if o := addr & pageMask; o <= pageSize-frameBytes {
		p := m.pages[addr>>pageShift]
		if p == nil {
			*fr = [16]uint32{}
			return
		}
		b := (*[frameBytes]byte)(p[o:])
		for i := range fr {
			fr[i] = binary.BigEndian.Uint32(b[4*i:])
		}
		return
	}
	for i := range fr {
		fr[i] = m.Load32(addr + uint32(4*i))
	}
}

// StoreBytes copies b into memory starting at addr.
func (m *Memory) StoreBytes(addr uint32, b []byte) {
	for i, c := range b {
		m.Store8(addr+uint32(i), c)
	}
}

// LoadBytes reads n bytes starting at addr.
func (m *Memory) LoadBytes(addr uint32, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = m.Load8(addr + uint32(i))
	}
	return b
}

// PagesTouched reports how many distinct pages have been materialised.
func (m *Memory) PagesTouched() int { return len(m.pages) }

// TouchedPages returns the base addresses of all materialised pages in
// ascending order, and PageSize the page granularity; together they let
// differential tests compare two memories byte for byte.
func (m *Memory) TouchedPages() []uint32 {
	out := make([]uint32, 0, len(m.pages))
	for pn := range m.pages {
		out = append(out, pn<<pageShift)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PageSize reports the page granularity of TouchedPages.
func PageSize() uint32 { return pageSize }

// StackAllocator hands out disjoint, downward-growing stack regions for
// guest threads, mirroring how the multi-tasking monitor lays out thread
// stacks.
type StackAllocator struct {
	next uint32
	size uint32
}

// NewStackAllocator returns an allocator that places stacks of the given
// size below top, one after another.
func NewStackAllocator(top, size uint32) *StackAllocator {
	return &StackAllocator{next: top, size: size}
}

// Alloc returns the initial stack pointer for a new thread stack; the
// region [sp-size, sp) belongs to that thread.
func (a *StackAllocator) Alloc() uint32 {
	sp := a.next
	a.next -= a.size
	return sp
}

// Size reports the size in bytes of every stack the allocator hands out.
func (a *StackAllocator) Size() uint32 { return a.size }
