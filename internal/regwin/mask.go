package regwin

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// maskWords is the number of 64-bit words backing a Mask; sized so one
// Mask covers MaxWindows bits.
const maskWords = (MaxWindows + 63) / 64

// Mask is a multi-word window bitmask — the WIM generalised past 32
// windows. Bit i refers to window i. The zero value is the empty mask.
// Mask is a comparable value type: == compares bit-for-bit, so masks
// embed directly in snapshots and events.
type Mask [maskWords]uint64

// MaskOf builds a mask from its low 64 bits; the idiom for literals in
// tests and for code that only deals with ≤64-window files.
func MaskOf(low uint64) Mask { return Mask{low} }

// MaskAll returns the mask with the low n bits set (every window of an
// n-window file marked). n outside [0, MaxWindows] is clamped.
func MaskAll(n int) Mask {
	var m Mask
	if n < 0 {
		n = 0
	}
	if n > MaxWindows {
		n = MaxWindows
	}
	for i := 0; n > 0; i++ {
		if n >= 64 {
			m[i] = ^uint64(0)
			n -= 64
		} else {
			m[i] = 1<<uint(n) - 1
			n = 0
		}
	}
	return m
}

// rangeWord returns word i of the mask with bits lo through hi set,
// both inclusive: zero when lo > hi or the range misses the word.
func rangeWord(i, lo, hi int) uint64 {
	lo, hi = lo-i<<6, hi-i<<6
	if lo > hi || hi < 0 || lo > 63 {
		return 0
	}
	w := ^uint64(0)
	if lo > 0 {
		w <<= uint(lo)
	}
	if hi < 63 {
		w &= ^uint64(0) >> uint(63-hi)
	}
	return w
}

// lowOnes returns one word with bits lo through hi set, without a
// branch, for 0 <= lo <= hi+1 and hi <= 63: lo == hi+1 (hi -1 or lo 64
// included) sets none.
func lowOnes(lo, hi int) uint64 {
	return ^uint64(0) >> uint(63-hi) & (^uint64(0) << uint(lo))
}

// Bit reports whether bit i is set. Out-of-range bits read as clear.
func (m Mask) Bit(i int) bool {
	if i < 0 || i >= MaxWindows {
		return false
	}
	return m[i>>6]&(1<<uint(i&63)) != 0
}

// bit reports whether bit i, which must lie in [0, MaxWindows), is set.
func (m *Mask) bit(i int) bool { return m[i>>6]&(1<<uint(i&63)) != 0 }

// Set sets bit i. Out-of-range bits are ignored.
func (m *Mask) Set(i int) {
	if i < 0 || i >= MaxWindows {
		return
	}
	m[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i. Out-of-range bits are ignored.
func (m *Mask) Clear(i int) {
	if i < 0 || i >= MaxWindows {
		return
	}
	m[i>>6] &^= 1 << uint(i&63)
}

// SetTo sets or clears bit i.
func (m *Mask) SetTo(i int, on bool) {
	if on {
		m.Set(i)
	} else {
		m.Clear(i)
	}
}

// OnesCount returns the number of set bits (population count).
func (m Mask) OnesCount() int {
	c := 0
	for _, w := range m {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsZero reports whether no bit is set.
func (m Mask) IsZero() bool { return m == Mask{} }

// And returns the bitwise AND of two masks.
func (m Mask) And(o Mask) Mask {
	var r Mask
	for i := range m {
		r[i] = m[i] & o[i]
	}
	return r
}

// Low64 returns the low 64 bits; exact for files of up to 64 windows.
func (m Mask) Low64() uint64 { return m[0] }

// hexLen bounds the length of a mask's hex literal: "0x" and 16
// digits per word.
const hexLen = 2 + 16*maskWords

// String renders the mask as a minimal hex literal ("0x0" when empty),
// matching how the old uint32 WIM printed under %#x.
func (m Mask) String() string {
	var buf [hexLen]byte
	return string(m.appendHex(buf[:0]))
}

// appendHex appends the mask's hex literal to b: the highest nonzero
// word without leading zeros, then every lower word as 16 digits.
func (m Mask) appendHex(b []byte) []byte {
	hi := len(m) - 1
	for hi > 0 && m[hi] == 0 {
		hi--
	}
	b = append(b, '0', 'x')
	b = strconv.AppendUint(b, m[hi], 16)
	for i := hi - 1; i >= 0; i-- {
		for shift := 60; shift >= 0; shift -= 4 {
			b = append(b, "0123456789abcdef"[m[i]>>uint(shift)&0xf])
		}
	}
	return b
}

// MarshalJSON encodes the mask as its hex string, keeping wide masks
// exact (a 256-bit value does not fit a JSON number).
func (m Mask) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, hexLen+2)
	b = append(b, '"')
	b = m.appendHex(b)
	return append(b, '"'), nil
}

// UnmarshalJSON accepts the hex-string form and, for compatibility with
// traces recorded before the widening, a bare JSON number.
func (m *Mask) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' {
		var err error
		if s, err = strconv.Unquote(s); err != nil {
			return fmt.Errorf("regwin: bad mask %s: %v", data, err)
		}
	} else {
		// A bare JSON number: a trace recorded before the widening, when
		// the WIM was a uint32 serialised in decimal.
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return fmt.Errorf("regwin: bad mask %s: %v", data, err)
		}
		*m = MaskOf(v)
		return nil
	}
	s = strings.TrimPrefix(s, "0x")
	var out Mask
	for i := 0; s != ""; i++ {
		if i >= maskWords {
			return fmt.Errorf("regwin: mask %s wider than %d bits", data, MaxWindows)
		}
		chunk := s
		if len(s) > 16 {
			chunk = s[len(s)-16:]
			s = s[:len(s)-16]
		} else {
			s = ""
		}
		w, err := strconv.ParseUint(chunk, 16, 64)
		if err != nil {
			return fmt.Errorf("regwin: bad mask %s: %v", data, err)
		}
		out[i] = w
	}
	*m = out
	return nil
}
