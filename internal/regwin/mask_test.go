package regwin

import (
	"encoding/json"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// TestMaskBoundaryBits exercises the bits flanking every word boundary
// (31/32, 63/64, 127/128, 191/192) plus the extremes, where a 32-bit or
// single-word implementation would silently truncate.
func TestMaskBoundaryBits(t *testing.T) {
	for _, i := range []int{0, 31, 32, 63, 64, 127, 128, 191, 192, MaxWindows - 1} {
		var m Mask
		m.Set(i)
		if !m.Bit(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		if got := m.OnesCount(); got != 1 {
			t.Errorf("bit %d: OnesCount = %d, want 1", i, got)
		}
		for _, j := range []int{i - 1, i + 1} {
			if j >= 0 && j < MaxWindows && m.Bit(j) {
				t.Errorf("Set(%d) leaked into bit %d", i, j)
			}
		}
		m.Clear(i)
		if !m.IsZero() {
			t.Errorf("bit %d: mask not zero after Clear", i)
		}
	}
}

// TestMaskOutOfRangeSafe pins that out-of-range bit operations are
// no-ops and reads come back clear.
func TestMaskOutOfRangeSafe(t *testing.T) {
	var m Mask
	for _, i := range []int{-1, MaxWindows, MaxWindows + 100} {
		m.Set(i)
		m.SetTo(i, true)
		if !m.IsZero() {
			t.Fatalf("Set(%d) modified the mask", i)
		}
		if m.Bit(i) {
			t.Fatalf("Bit(%d) read true", i)
		}
		m.Clear(i)
	}
}

func TestMaskAll(t *testing.T) {
	for _, n := range []int{0, 1, 3, 32, 33, 64, 65, 100, 255, 256} {
		m := MaskAll(n)
		if got := m.OnesCount(); got != n {
			t.Errorf("MaskAll(%d).OnesCount = %d", n, got)
		}
		if n > 0 && !m.Bit(n-1) {
			t.Errorf("MaskAll(%d): bit %d clear", n, n-1)
		}
		if m.Bit(n) {
			t.Errorf("MaskAll(%d): bit %d set", n, n)
		}
	}
	if got := MaskAll(-5); !got.IsZero() {
		t.Errorf("MaskAll(-5) = %v, want zero", got)
	}
	if got := MaskAll(MaxWindows + 7); got != MaskAll(MaxWindows) {
		t.Errorf("MaskAll past MaxWindows not clamped: %v", got)
	}
}

// TestMaskString pins that narrow masks render exactly as the old
// uint32 WIM did under %#x, and that wide masks stay exact.
func TestMaskString(t *testing.T) {
	cases := []struct {
		m    Mask
		want string
	}{
		{Mask{}, "0x0"},
		{MaskOf(0x4), "0x4"},
		{MaskOf(0xdeadbeef), "0xdeadbeef"},
		{MaskOf(1 << 63), "0x8000000000000000"},
		{func() Mask { var m Mask; m.Set(64); return m }(), "0x10000000000000000"},
		{func() Mask { var m Mask; m.Set(255); m.Set(0); return m }(),
			"0x8000000000000000000000000000000000000000000000000000000000000001"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestMaskHexMatchesBigInt checks String and MarshalJSON against
// "0x" + big.Int.Text(16) at every width from 2 to 256 bits: the empty
// and full masks, single bits at both ends and at every word boundary
// inside the width, and seeded random masks. Each must also read back
// through UnmarshalJSON.
func TestMaskHexMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := MinWindows; width <= MaxWindows; width++ {
		masks := []Mask{{}, MaskAll(width)}
		for _, b := range []int{0, 1, 31, 32, 63, 64, 65, 127, 128, 191, 192, width - 2, width - 1} {
			if b >= 0 && b < width {
				var m Mask
				m.Set(b)
				masks = append(masks, m)
			}
		}
		for i := 0; i < 8; i++ {
			var m Mask
			for j := range m {
				m[j] = rng.Uint64()
			}
			masks = append(masks, m.And(MaskAll(width)))
		}
		for _, m := range masks {
			v := new(big.Int)
			for j := len(m) - 1; j >= 0; j-- {
				v.Lsh(v, 64)
				v.Or(v, new(big.Int).SetUint64(m[j]))
			}
			want := "0x" + v.Text(16)
			if got := m.String(); got != want {
				t.Fatalf("width %d: String() = %s, want %s", width, got, want)
			}
			js, err := m.MarshalJSON()
			if err != nil || string(js) != strconv.Quote(want) {
				t.Fatalf("width %d: MarshalJSON() = %s, %v; want %s", width, js, err, strconv.Quote(want))
			}
			var back Mask
			if err := json.Unmarshal(js, &back); err != nil || back != m {
				t.Fatalf("width %d: %s read back as %v, %v", width, js, back, err)
			}
		}
	}
}

// TestMaskJSONRoundTrip marshals masks spanning every word and expects
// bit-exact recovery, including bits straddling word boundaries.
func TestMaskJSONRoundTrip(t *testing.T) {
	var wide Mask
	for _, i := range []int{0, 31, 32, 63, 64, 127, 128, 200, 255} {
		wide.Set(i)
	}
	for _, m := range []Mask{{}, MaskOf(0x4), MaskAll(33), MaskAll(256), wide} {
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back Mask
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		if back != m {
			t.Errorf("round trip %v -> %s -> %v", m, blob, back)
		}
	}
}

// TestMaskJSONLegacyNumber pins compatibility with traces recorded
// before the widening, when the WIM was a uint32 serialised as a bare
// decimal JSON number.
func TestMaskJSONLegacyNumber(t *testing.T) {
	var m Mask
	if err := json.Unmarshal([]byte(`20`), &m); err != nil {
		t.Fatal(err)
	}
	if m != MaskOf(20) {
		t.Errorf("legacy 20 decoded as %v, want %v", m, MaskOf(20))
	}
}

func TestMaskJSONRejectsGarbage(t *testing.T) {
	for _, s := range []string{`"0xzz"`, `"x"`, `true`,
		`"0x10000000000000000000000000000000000000000000000000000000000000000"`} {
		var m Mask
		if err := json.Unmarshal([]byte(s), &m); err == nil {
			t.Errorf("unmarshal %s succeeded with %v", s, m)
		}
	}
}

func TestMaskAndLow64(t *testing.T) {
	a := MaskAll(100)
	b := MaskAll(70)
	if got := a.And(b); got != b {
		t.Errorf("MaskAll(100) & MaskAll(70) = %v", got)
	}
	if got := MaskAll(64).Low64(); got != ^uint64(0) {
		t.Errorf("Low64 = %#x", got)
	}
}
