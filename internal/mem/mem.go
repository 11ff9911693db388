// Package mem provides the byte-addressed simulated memory used by the
// register-window machine: window save areas, guest thread stacks, and
// data for the ISA interpreter. The memory is sparse and paged, and, as
// on SPARC, big-endian.
package mem

import "sort"

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// pageWords is the number of 32-bit words in one page. A page is
	// kept as words, not bytes: word k holds the big-endian word at
	// byte offset 4k, so an aligned word access is one array index and
	// a byte access shifts and masks.
	pageWords = pageSize / 4

	// frameWords and frameBytes are the size of one save-area frame:
	// 16 words, one spilled register window.
	frameWords = 16
	frameBytes = frameWords * 4
)

// page is one 4 KiB page as big-endian words.
type page = [pageWords]uint32

// Memory is a sparse, paged, big-endian byte-addressed memory. The zero
// value is ready to use.
type Memory struct {
	pages map[uint32]*page
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint32]*page)}
}

// page returns the page holding addr, materialising it.
func (m *Memory) page(addr uint32) *page {
	if m.pages == nil {
		m.pages = make(map[uint32]*page)
	}
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil {
		p = new(page)
		m.pages[pn] = p
	}
	return p
}

// lookup returns the page holding addr, or nil if it was never
// materialised.
func (m *Memory) lookup(addr uint32) *page {
	if m.pages == nil {
		return nil
	}
	return m.pages[addr>>pageShift]
}

// byteShift is how far the byte at addr sits from the low end of its
// word: the first byte of a word is its most significant.
func byteShift(addr uint32) uint32 { return 24 - 8*(addr&3) }

// Load8 reads the byte at addr; untouched memory reads as zero.
func (m *Memory) Load8(addr uint32) byte {
	p := m.lookup(addr)
	if p == nil {
		return 0
	}
	return byte(p[addr&pageMask>>2] >> byteShift(addr))
}

// Store8 writes one byte at addr.
func (m *Memory) Store8(addr uint32, v byte) {
	w := &m.page(addr)[addr&pageMask>>2]
	s := byteShift(addr)
	*w = *w&^(0xff<<s) | uint32(v)<<s
}

// Load32 reads a big-endian 32-bit word at addr. The address need not be
// aligned; the ISA layer enforces alignment before calling. An aligned
// word (the common case: instruction fetch, ld/st) is one page lookup
// and one array index.
func (m *Memory) Load32(addr uint32) uint32 {
	if addr&3 == 0 {
		p := m.lookup(addr)
		if p == nil {
			return 0
		}
		return p[addr&pageMask>>2]
	}
	return uint32(m.Load8(addr))<<24 | uint32(m.Load8(addr+1))<<16 |
		uint32(m.Load8(addr+2))<<8 | uint32(m.Load8(addr+3))
}

// Store32 writes a big-endian 32-bit word at addr.
func (m *Memory) Store32(addr uint32, v uint32) {
	if addr&3 == 0 {
		m.page(addr)[addr&pageMask>>2] = v
		return
	}
	m.Store8(addr, byte(v>>24))
	m.Store8(addr+1, byte(v>>16))
	m.Store8(addr+2, byte(v>>8))
	m.Store8(addr+3, byte(v))
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

// SaveArea is one thread's window save area: a stack of 64-byte frames
// growing down from its top, frame i (counting from 1) at top-64i. It
// remembers the page it last used, so a thread resolves a page once
// per page its frames enter rather than once per frame. Every call on
// one area must pass the same Memory, the one the area lies in.
type SaveArea struct {
	page *page // the page numbered pn, or nil before the first frame
	pn   uint32
	top  uint32
}

// NewSaveArea returns a save area whose frames lie below top.
func NewSaveArea(top uint32) SaveArea { return SaveArea{top: top} }

// frame returns the words of frame i, or nil when they are not 16
// aligned words of one page (a top that is not a multiple of 64 can
// misalign frames or put one across a page boundary). A frame on a
// page the memory does not hold materialises it when create is set
// and is nil otherwise.
func (a *SaveArea) frame(m *Memory, i int, create bool) *[frameWords]uint32 {
	addr := a.top - uint32(i)*frameBytes
	o := addr & pageMask
	if addr&3 != 0 || o > pageSize-frameBytes {
		return nil
	}
	if pn := addr >> pageShift; a.page == nil || pn != a.pn {
		p := m.lookup(addr)
		if p == nil {
			if !create {
				return nil
			}
			p = m.page(addr)
		}
		a.page, a.pn = p, pn
	}
	return (*[frameWords]uint32)(a.page[o>>2:])
}

// Store writes src into frame i, exactly as 16 Store32 calls from the
// frame's address on would: word k of src is the big-endian word at
// that address plus 4k.
func (a *SaveArea) Store(m *Memory, i int, src *[frameWords]uint32) {
	if fr := a.frame(m, i, true); fr != nil {
		*fr = *src
		return
	}
	addr := a.top - uint32(i)*frameBytes
	for k, v := range src {
		m.Store32(addr+uint32(4*k), v)
	}
}

// Load reads frame i into dst, exactly as 16 Load32 calls would. Like
// Load32 it materialises no page: an untouched page reads as zeros.
func (a *SaveArea) Load(m *Memory, i int, dst *[frameWords]uint32) {
	if fr := a.frame(m, i, false); fr != nil {
		*dst = *fr
		return
	}
	addr := a.top - uint32(i)*frameBytes
	for k := range dst {
		dst[k] = m.Load32(addr + uint32(4*k))
	}
}

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
